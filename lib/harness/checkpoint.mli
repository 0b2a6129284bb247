(** Crash-safe campaign checkpoints.

    A campaign appends one self-describing TSV line per completed figure row
    to a sidecar file; a re-run loads the sidecar and skips the rows it
    already holds. Each row names its columns once, after the campaign key,
    and every cell then lists its name and one value per column. Floats are
    serialized as ["%h"] hex literals, so a resumed row is bit-identical to
    the row a fresh run would compute — determinism survives the crash.

    The format is tolerant of what crashes and sharing legitimately
    produce: a torn trailing line (the process died mid-write) and lines
    written by a different campaign (other figure, seed, or trial count)
    are silently skipped on load. A row that {e does} claim this
    campaign's key but fails to parse anywhere before the final line is
    real corruption and raises {!Corrupt}; one written by a build with
    another format version or column set raises {!Mismatch}. Silently
    recomputing either would hide rows the user believes are
    checkpointed. This module knows nothing about {!Runner}: it stores
    named, typed values. *)

type key = { figure_id : string; seed : int; trials : int }
(** Identity of a campaign. Rows are only reused when all three match: a
    checkpoint written at 50 trials must not satisfy a 150-trial run. *)

type value =
  | Float of float
  | Opt of float option  (** ["-"] when absent. *)
  | Int of int
  | Msg of string option
      (** Escaped, so it carries no literal tab or newline. *)
(** One cell field as written. *)

type reader = {
  float : string -> float;
  opt : string -> float option;
  int : string -> int;
  msg : string -> string option;
}
(** Typed access, by column name, to one cell of a loaded row. *)

exception Corrupt of { path : string; line : int; reason : string }
(** Raised by {!load} on a row that matches the key but fails to parse —
    unless it is the file's final line, which a crash can legitimately
    tear and {!append} heals. Registered with [Printexc] for a readable
    message naming the sidecar and the 1-based line. *)

exception Mismatch of { path : string; line : int; found : string }
(** Raised by {!load} on a row that matches the key but was written by a
    build with another format: [found] names the version the row carries
    (["v1"] for sidecars older than named columns) or the first column
    that differs from this build's. Such sidecars do not resume; delete
    them and recompute. Registered with [Printexc]. *)

val append :
  path:string -> key -> x:float -> (string * (string * value) list) list -> unit
(** Append one completed row — cells as (cell name, named values), every
    cell with the same columns in the same order — and flush. Creates the
    file when missing; the enclosing directory must exist. *)

val load :
  path:string ->
  key ->
  columns:string list ->
  (reader -> 'a) ->
  (float * (string * 'a) list) list
(** All well-formed rows of [path] matching [key], in file order (a later
    duplicate of some [x] follows the earlier one), each cell decoded by
    the given function. [columns] is this build's column set; a row's
    values are mapped by name, in whatever order the row lists them. A
    missing file is an empty checkpoint.
    @raise Mismatch on a matching row with another version or column set.
    @raise Corrupt on a matching row that fails to parse, unless it is
    the (possibly torn) final line. *)
