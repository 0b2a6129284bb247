(** Aggregate statistics across all simulated instances — the numbers the
    paper reports in Section 6.4: per-heuristic success rates (XY about 15%,
    XYI 46%, PR 50%, BEST 51%), mean-inverse-power ratios over XY (XYI about
    2.44x, PR 2.57x, BEST 2.95x), the static fraction of the total power
    (about 1/7), and heuristic runtimes — plus, new with the telemetry
    layer, exact runtime quantiles and the {!Routing.Metrics} work-counter
    totals.

    Determinism contract: the accumulator {e retains} its observations and
    performs every floating-point sum in {!finalize}, folding observations
    in the order defined by {!add} and {!merge} (all of [into]'s, then all
    of [src]'s). Accumulating shards on worker accumulators and merging
    them in shard order therefore yields bit-identical results to one
    sequential accumulator fed in trial order — see the property test in
    [test/test_harness.ml]. *)

type acc
(** Mutable accumulator; feed it the outcomes of every instance. Not
    thread-safe — under a worker pool, build one {!obs} per instance on the
    worker and {!add} (or {!merge}) them in a deterministic order. *)

val create : unit -> acc

type obs
(** Immutable observation of a single instance — safe to build on any
    domain and fold later. *)

val observation :
  pareto:(string * Optim.Pareto.objectives) list ->
  outcomes:Routing.Best.outcome list ->
  best:Routing.Best.outcome option ->
  times:(string * float) list ->
  counters:(string * Routing.Metrics.counters) list ->
  obs
(** Capture one instance: the per-heuristic outcomes, the BEST outcome,
    per-heuristic wall-clock seconds, and per-heuristic work-counter
    deltas (captured with {!Routing.Metrics.snapshot}/[diff] on the worker
    that ran the instance). [pareto] carries the per-heuristic Pareto
    points of a sim-scored instance (empty for classic power-only
    campaigns); they feed the merged {!t.pareto_front}. *)

val add : acc -> obs -> unit
(** Fold one observation into the accumulator (a cons — no float math
    happens until {!finalize}). *)

val merge : into:acc -> acc -> unit
(** [merge ~into src] appends [src]'s observations after [into]'s, in
    order. Because all float summation is deferred to {!finalize}, merging
    per-worker accumulators in a fixed shard order is bit-identical to a
    single sequential fold — including the counter fields. *)

type t = {
  instances : int;
  success_ratio : (string * float) list;  (** Per heuristic, plus BEST. *)
  mean_inverse_power : (string * float) list;
      (** Mean of 1/power over all instances (0 on failure), mW^-1. *)
  inverse_power_vs_xy : (string * float) list;
      (** [mean_inverse_power h / mean_inverse_power XY] — the paper's
          "2.44 times higher in XYI than in XY" metric. *)
  static_fraction : float;
      (** Mean static/total power over feasible BEST solutions. *)
  mean_runtime_ms : (string * float) list;
  runtime_quantiles_ms : (string * (float * float)) list;
      (** Per heuristic, (p50, p95) wall-clock milliseconds — exact
          nearest-rank quantiles over the retained per-instance runtimes,
          deterministic under {!merge}. *)
  counters : (string * Routing.Metrics.counters) list;
      (** Per-heuristic {!Routing.Metrics} work totals; heuristics whose
          block is all zero are omitted. *)
  pareto_front : Optim.Pareto.point list;
      (** The campaign-wide non-dominated front, merged over every
          sim-scored instance's points in observation order (empty for
          classic power-only campaigns). Jobs-invariant: points fold in
          the deterministic observation order and {!Optim.Pareto.front}
          preserves it. *)
}

val finalize : acc -> t

val quantiles : float array -> float * float
(** [(p50, p95)] of the values by the same exact nearest-rank rule as
    {!t.runtime_quantiles_ms}, over a sorted copy (the input is not
    mutated). [(0., 0.)] on an empty array. Exposed for per-operation
    latency streams — the online serve CLI feeds its wall-clock per-event
    latencies through this. *)

val pp : Format.formatter -> t -> unit
(** Renders the Section 6.4 summary table, the runtime quantiles and the
    work-counter totals. *)
