(** Zero-dependency observability for the campaign stack.

    Three layers, all opt-in and all free when off:

    {b Span tracing.} A {!sink} collects monotonic-clock spans
    ([campaign > row > trial > heuristic/repair/evaluate]) into per-domain
    buffers: each worker appends to its own buffer (lock-free — the only
    lock is taken once per domain, to register the buffer), and
    {!write_file} merges them into a Chrome trace-event JSON file loadable
    in [chrome://tracing] / [about:tracing] / Perfetto. With no sink
    installed, {!span} is one atomic load and a branch — tracing off costs
    nothing on the hot path. The install also arms
    {!Routing.Metrics.set_span_hook}, so repair spans emitted below the
    harness land in the same sink.

    {b Live progress.} {!Progress} maintains atomic completed-trial /
    error counters ticked from {!Pool.map} workers and repaints a single
    stderr line (rows, trials, errors, ETA from completed-trial wall
    time) at most every 100 ms. Resumed checkpoint rows advance it
    instantly, so a killed-and-restarted campaign shows where it is.

    {b Wiring.} [--trace FILE] and [--progress] switch the two on for
    [manroute figure]; without [--trace], [MANROUTE_TRACE=FILE] traces a
    [figure] or [experiment] run. *)

type sink
(** A trace collector. One per traced campaign; create, {!install}, run,
    {!uninstall}, {!write_file}. *)

val create : unit -> sink
(** A fresh sink; its clock zero is the creation instant. *)

val install : sink -> unit
(** Make [sink] the process-wide span destination (also arms the
    {!Routing.Metrics} span hook). Install before spawning worker
    domains. *)

val uninstall : unit -> unit
(** Disarm tracing: subsequent {!span}s are single-branch no-ops again. *)

val enabled : unit -> bool
(** Whether a sink is currently installed. *)

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when a sink is installed, the wall-clock
    extent is recorded as a complete ("ph":"X") trace event named [name],
    in category [cat] (default ["span"]), tagged with the calling domain
    as its thread id and [args] as its event args. Recorded on exceptional
    exit too. When no sink is installed: a branch, then [f ()]. *)

val event_count : sink -> int
(** Spans recorded so far, over all domains (takes the registry lock). *)

val write_file : sink -> string -> int
(** Merge every domain's buffer, sort by start time and write Chrome
    trace-event JSON to the given path. Returns the number of events
    written. The sink stays usable (a later write rewrites the file with
    the longer history). *)

val validate_file : string -> (int, string) result
(** The CI trace checker, no external tool: verifies the file is
    well-formed JSON of the shape {!write_file} emits (one event object
    per line, braces and brackets balanced, every event carrying
    [name]/[ph:"X"]/[ts]/[dur]/[tid]) and that each thread's spans nest
    properly (no partial overlap — every span is balanced within its
    enclosing one). [Ok n] is the number of events; an [Error] names the
    line number and quotes a snippet of the first offending event. *)

(** {1 Zero-dependency JSON helpers}

    Shared with {!Audit} and the artifact checkers — the project carries
    no JSON library, so the writers emit a fixed shape and the checkers
    verify exactly that shape. *)

val escape_json : Buffer.t -> string -> unit
(** Append the JSON string-escaped form (quotes, backslashes, control
    characters; no surrounding quotes). *)

val balanced_json : string -> bool
(** Braces/brackets balance outside string literals, and no line ends
    inside a string literal (which also rejects a truncated trailing
    string). *)

val find_field : string -> string -> int option
(** [find_field line key] is the position just after a literal
    ["key":] in [line], for text whose strings never embed an unescaped
    quote (true of everything the harness writes). *)

val float_field : string -> string -> float option
(** The number following [find_field], when it parses. *)

val read_file : string -> string
(** The whole file, for the artifact checkers. *)

val snippet : string -> string
(** A trimmed excerpt (at most 60 bytes) of an offending line, quoted in
    checker errors. *)

(** {1 CLI / environment wiring} *)

val trace_file : ?cli:string -> unit -> string option
(** The trace destination: [cli] when given, else [MANROUTE_TRACE] from
    the environment when set and non-empty, else [None]. *)

val tracing : string option -> (unit -> 'a) -> 'a
(** [tracing (Some file) f] creates [file] (raising [Sys_error] before
    [f] runs when it cannot), creates and installs a sink, runs [f],
    uninstalls, writes [file] and prints a one-line note to stderr;
    exceptions still write the partial trace. [tracing None f] is
    [f ()]. *)

(** {1 Live progress} *)

module Progress : sig
  type t

  val create :
    ?out:out_channel -> label:string -> rows:int -> total:int -> unit -> t
  (** A progress line for [total] expected trials across [rows] figure
      rows, repainted on [out] (default stderr). [label] prefixes the
      line (the figure id). *)

  val tick : t -> unit
  (** One trial completed. Safe from any domain: counters are atomic and
      only one domain at a time wins the repaint slot. *)

  val row : t -> unit
  (** One figure row completed. *)

  val error : t -> unit
  (** One trial completed with an error (count it before its {!tick}). *)

  val advance : t -> int -> unit
  (** Credit [n] trials at once — checkpoint rows resumed without
      recomputation. *)

  val finish : t -> unit
  (** Erase the line (progress must not corrupt piped stdout output). *)
end
