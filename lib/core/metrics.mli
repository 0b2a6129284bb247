(** Cheap, always-on work counters and an installable span hook for the
    routing layer.

    The heuristics, the repair pass, the evaluator and the exact solver
    live below the harness, so they cannot see {!Harness.Telemetry}
    directly. This module is the seam between the two: the routing code
    bumps plain integer counters on a domain-local record (an increment
    per event, no allocation, no synchronization — each worker domain owns
    its block), and wraps its interesting phases in {!with_span}, which is
    a single branch on an uninstalled hook. The harness snapshots the
    counters around each trial to surface deterministic, jobs-invariant
    per-trial deltas, and installs a hook that turns the spans into trace
    events.

    Counter semantics:
    - [paths_scored]: candidate paths constructed or cost-evaluated — one
      per path built by XY/SG/IG, per two-bend candidate costed by TB, per
      path extracted or enumerated by PR, per XYI diversion candidate.
    - [dp_cells]: slots relaxed by PR's reachability/extraction dynamic
      programs over the rectangle's diagonal steps.
    - [bb_nodes]: branch-and-bound nodes visited by {!Optim.Exact} (the
      same count its [--max-nodes] budget meters).
    - [detour_searches]: routes the repair pass had to re-route around a
      fault (Manhattan DP, plus the BFS detour when the rectangle is cut).
    - [feasibility_checks]: solution evaluations ({!Evaluate} load scans
      deciding feasibility and power).
    - [delta_evals]: incremental candidate-scoring evaluations made
      through {!Delta} — per-link memoized cost lookups and planned
      occupancy reads in the heuristic hot paths.
    - [pf_iterations]: outer negotiation passes of the PathFinder-style
      rip-up-and-reroute engine ({!Optim.Pathfinder}) — one per sweep
      over all communications.
    - [pf_rips]: communications ripped off an overloaded link and
      rerouted by that engine (the initial routing pass is not a rip).
    - [recover_events]: fault-schedule events processed by the recovery
      engine ([Optim.Recover.step] calls).
    - [recover_sheds]: communications shed (dropped) by the recovery
      engine's graceful-degradation rung.
    - [recover_rung_max]: sum over recovery events of the highest
      escalation rung reached for that event (1 = survived untouched,
      5 = shedding). A sum, not a running maximum, so per-trial deltas
      merge additively and stay jobs-invariant like every other counter;
      the per-event maxima are in [Optim.Recover.report]. *)

type counters = {
  mutable paths_scored : int;
  mutable dp_cells : int;
  mutable bb_nodes : int;
  mutable detour_searches : int;
  mutable feasibility_checks : int;
  mutable delta_evals : int;
  mutable pf_iterations : int;
  mutable pf_rips : int;
  mutable recover_events : int;
  mutable recover_sheds : int;
  mutable recover_rung_max : int;
}

val zero : unit -> counters
(** A fresh all-zero block. *)

type field = {
  name : string;  (** The record field, also the audit JSON key. *)
  suffix : string;  (** Figure CSV column suffix and checkpoint column. *)
  label : string;  (** Short {!pp} label. *)
  get : counters -> int;
  set : counters -> int -> unit;
}

val fields : field list
(** Every counter once, in declaration order: the table {!snapshot},
    {!diff}, {!add}, {!pp}, the figure CSV, the campaign checkpoint and
    the audit JSON iterate. Increments in the hot loops stay direct
    field writes. *)

val init : (field -> int) -> counters
(** [init value] is a fresh block with each field [f] set to [value f]. *)

val current : unit -> counters
(** The calling domain's running totals. Monotonically increasing for the
    life of the domain; meaningful only as differences between two
    {!snapshot}s taken on the same domain. *)

val snapshot : unit -> counters
(** An immutable copy of {!current}. *)

val diff : counters -> counters -> counters
(** [diff after before] — fresh block of per-field differences. *)

val add : into:counters -> counters -> unit
(** [add ~into c] accumulates [c] into [into], field by field. Integer
    sums: associative, so any deterministic fold order gives bit-identical
    totals. *)

val nearest_rank : int -> float -> int
(** [nearest_rank n p] is the index of the nearest-rank [p]-quantile
    among [n >= 1] sorted values: [ceil (p * n) - 1], clamped to
    [0 .. n-1]. No interpolation. The one rank rule of the work and
    latency quantiles: simulator reports, served sessions and campaign
    summaries. *)

val is_zero : counters -> bool
val equal : counters -> counters -> bool

val pp : Format.formatter -> counters -> unit
(** ["paths=… dp=… bb=… detours=… evals=… delta=… pf-it=… pf-rips=…
    rec-ev=… rec-shed=… rec-rung=…"], omitting zero fields; ["-"] when
    all are zero. *)

(** {1 Span hook}

    Disabled by default: {!with_span} then costs one atomic load and a
    branch. The harness installs a hook while tracing is on; the hook is
    called with the span name at entry and returns the closure to run at
    exit (also on exceptional exit). *)

val set_span_hook : (string -> unit -> unit) option -> unit

val with_span : string -> (unit -> 'a) -> 'a
