(** Machine-readable audit artifacts for campaigns.

    A campaign run with [--audit DIR] re-examines a deterministic subset
    of its trials — the worst-power trial of each row, every trial whose
    heuristic errored, and every trial where the recovery engine shed
    traffic — and appends one JSON record per selected trial to
    [DIR/<figure>-audit.jsonl]. Each record carries the per-heuristic
    reports (or errors), PathFinder and Recover engine annotations, and a
    full {!Routing.Probe} decomposition of the best solution: per-link
    occupancy/power grid, per-communication power attribution, and
    overload blame sets.

    Selection is a pure function of the trial-ordered result array and
    the re-capture replays the per-trial RNG on the calling domain, so
    the artifact is byte-identical whatever [MANROUTE_JOBS] was.

    The same JSON writer backs [manroute inspect --json] artifacts;
    {!validate_file} is the CI checker for the audit shape (the project
    carries no JSON library, so writers emit a fixed shape and checkers
    verify exactly that shape). *)

(** A minimal JSON document writer. Finite floats are printed as
    [%.17g] (deterministic, round-trips bit-exactly); non-finite floats
    become [null] — JSON has no spelling for them, and the carrying
    record's [feasible]/[overloaded] fields preserve the semantics. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
end

val audit_schema : string
(** ["manroute-audit/1"] — the [schema] field of every audit record. *)

val inspect_schema : string
(** ["manroute-inspect/1"] — the [schema] field of an inspect artifact. *)

(** {1 JSON views} *)

val json_of_report : Routing.Evaluate.report -> Json.t
val json_of_probe : Routing.Probe.t -> Json.t
val json_of_recover : Optim.Recover.report -> Json.t

(** {1 Audit records} *)

(** Why a trial was selected. A single trial can match several. *)
type kind =
  | Worst  (** The row's worst best-heuristic total power. *)
  | Errored  (** Some heuristic (or the trial itself) raised. *)
  | Shed  (** The recovery engine shed at least one communication. *)

val kind_label : kind -> string

type cell = {
  cell_name : string;
  outcome : (Routing.Evaluate.report, string) result;
  note : Routing.Heuristic.note option;
      (** The engine's note: a PathFinder negotiation annotation or the
          recovery engine's per-event reports are recorded; other notes
          (an online session) are not. *)
  objectives : Optim.Pareto.objectives option;
      (** The cell's Pareto point (power, simulated p50/p95, slope), when
          the trial belonged to a Pareto figure and the cell was
          feasible. *)
}
(** One heuristic's outcome within the audited trial. *)

type record = {
  figure_id : string;
  seed : int;
  trials : int;
  x : float;
  trial : int;  (** 0-based trial index within the row. *)
  kinds : kind list;
  cells : cell list;
  best : string option;  (** Winning heuristic name, when any succeeded. *)
  front : string list option;
      (** The trial's non-dominated front (cell names in cell order), when
          the trial belonged to a Pareto figure. *)
  probe : Routing.Probe.t option;
      (** Probe of the best solution, when any heuristic succeeded. *)
}

val record_line : record -> string
(** The record as a single JSON line (no trailing newline). *)

(** {1 Jobs-invariant trial selection} *)

type verdict = { best_power : float option; errored : bool; shed : bool }
(** What the runner knows about a finished trial: the BEST cell's total
    power when feasible, whether anything errored, whether recovery shed
    traffic. *)

val select : verdict array -> (int * kind list) list
(** The audited trials of one row, in index order with their reasons:
    the first maximal-[best_power] trial plus every errored and every
    shedding trial. A pure function of the array, which the runner fills
    in trial order regardless of worker count — selection is
    jobs-invariant. *)

(** {1 Sinks and artifact files} *)

type sink

val create : dir:string -> figure_id:string -> sink
(** Open (truncating) [dir/<figure_id>-audit.jsonl], creating [dir] if
    needed. *)

val path : sink -> string
val write : sink -> record -> unit
val close : sink -> unit

val write_inspect_file :
  path:string -> meta:(string * Json.t) list -> Routing.Probe.t -> unit
(** Write a [manroute-inspect/1] artifact (one JSON document plus a
    trailing newline, creating the directory if needed): the [meta]
    fields (instance parameters) followed by the full probe
    decomposition. *)

(** {1 Artifact checkers} *)

val validate_file : string -> (int, string) result
(** CI checker for an audit JSONL file: every non-blank line must be a
    balanced JSON object with [schema = "manroute-audit/1"] and the
    [figure]/[x]/[trial]/[kinds]/[cells] fields. [Ok n] is the record
    count; errors name the line and quote a snippet. *)
