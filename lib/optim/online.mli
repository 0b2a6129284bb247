(** Long-lived incremental routing service: streaming arrivals and
    departures, idle-link switch-off, power over time.

    The batch model fixes a workload, routes it, evaluates it. This
    engine instead {e serves} a {!Traffic.Trace}: each {b arrival} is
    admitted by a delta-scored candidate path
    ({!Routing.Repair.local_route} against the engine's loads, which
    carry the fault: the cheapest surviving Manhattan path, else a detour
    walk) speculatively applied through the {!Routing.Delta}
    mark/rollback journal; when admission
    overloads a link, the engine escalates exactly like the
    {!Recover} ladder — neighborhood PathFinder negotiation
    ({!Pathfinder.refine} with persistent history), then global
    negotiation, then typed shedding of the lightest offender in
    admission order ({!Recover.shed_lightest}). Each {b departure}
    releases the communication's links and locally re-optimizes its
    neighborhood (every live route crossing a freed link gets one
    cheaper-path retry, kept only when the total power strictly drops),
    then speculatively readmits previously-shed communications, oldest
    first ({!Recover.readmit}).

    {b Idle-link switch-off.} Leakage is first-order (~16.9 mW per
    active link in the Kim–Horowitz model), and the batch evaluator
    charges it only on links {e carrying load} — an online service also
    pays it on idle-but-powered links. The engine tracks per-link sleep
    state with hysteresis: a usable link that stays at zero occupancy
    for [idle_epochs] consecutive events switches off (its leakage
    moves to the [saved_leak] column), and pays [wake_penalty] once
    when traffic returns. Reported power thus separates dynamic,
    active-leakage, idle-leakage, saved-leakage and wake terms; with
    switch-off disabled the saved column is charged instead, so the
    sleeping run's cumulative power is strictly lower as soon as any
    link ever sleeps for longer than its wakes cost.

    {b Bit-identity.} After {e every} event the engine's load vector is
    canonical — identical to folding the live routes in admission order
    over a fresh engine — so each {!op}'s [eval] bit-matches a
    from-scratch {!Routing.Evaluate.of_loads} rescore on {!solution},
    at any worker-domain count.
    Arrivals admitted on the first try keep the invariant incrementally
    (an append {e is} canonical, O(path length)); negotiation, shedding
    and departures rebuild. *)

type shed = { comm : Traffic.Communication.t; reason : Recover.shed_reason }

(** Power of one served epoch, split by where it goes. The reported
    total is [dynamic + active_leak + idle_leak + wake_cost]; a
    switch-off-disabled run pays [saved_leak] inside [idle_leak]
    instead of saving it. *)
type power_split = {
  dynamic : float;  (** Transport power of the carried traffic. *)
  active_leak : float;  (** Leakage of links carrying load. *)
  idle_leak : float;  (** Leakage of idle-but-awake usable links. *)
  saved_leak : float;  (** Leakage avoided by sleeping links. *)
  wake_cost : float;  (** Wake penalties charged this epoch. *)
}

val split_total : power_split -> float
(** Power actually drawn this epoch. *)

(** Outcome of serving one event. *)
type op = {
  seq : int;  (** 0-based event index. *)
  time : float;  (** Trace timestamp. *)
  kind : Traffic.Trace.kind;  (** The event just served. *)
  rung : int;
      (** Escalation reached: 1 clean admit/trivial depart, 2 departure
          neighborhood re-optimization improved a route, 3 neighborhood
          negotiation, 4 global negotiation, 5 shedding. *)
  admitted : bool;  (** An arrival was admitted (live right now). *)
  live : int;  (** Live communications after the event. *)
  shed_now : shed list;
  readmitted : Traffic.Communication.t list;
  passes : int;  (** Negotiation sweeps run by this event. *)
  rips : int;  (** Routes ripped off convicted links. *)
  reroutes : int;  (** Candidate-path searches run. *)
  wakes : int;  (** Links woken by this event's traffic. *)
  sleeps : int;  (** Links switched off after this event. *)
  power : power_split;
  eval : Routing.Evaluate.report;
      (** Canonical evaluation of {!solution} — bit-identical to a
          from-scratch [Evaluate.of_loads]. *)
  work : Routing.Metrics.counters;  (** Counter delta of this event. *)
}

type t
(** Mutable service state: the tracked engine, live routes in admission
    order, the shed retry queue, per-link sleep state, and the
    persistent negotiation history. *)

val create :
  ?fault:Noc.Fault.t ->
  ?idle_epochs:int ->
  ?wake_penalty:float ->
  ?sleep:bool ->
  Power.Model.t ->
  Noc.Mesh.t ->
  t
(** An empty service. [idle_epochs] (default 2, >= 1) is the switch-off
    hysteresis; [wake_penalty] (default the model's per-link leakage
    [p_leak], >= 0) the one-shot wake charge; [sleep] (default [true])
    enables switch-off. Each arrival runs at most 4 neighborhood and 16
    global negotiation sweeps. @raise Invalid_argument on out-of-range
    knobs. *)

val step : t -> Traffic.Trace.event -> op
(** Serve one event. A departure of an unknown or already-shed id is a
    trivial rung-1 op (the request leaves the retry queue). *)

val serve : t -> Traffic.Trace.event list -> op list
(** {!step} over a whole trace, in order. *)

val solution : t -> Routing.Solution.t
(** The live routes, in admission order. *)

val live : t -> int

(** Whole-session accounting, for the CLI printout, the campaign
    columns and the E27 bench. *)
type session = {
  ops : int;
  s_arrivals : int;
  s_departures : int;
  s_admitted : int;  (** Arrivals admitted on first try or by ladder. *)
  s_shed : int;  (** Shed events (readmissions may reverse them). *)
  s_readmitted : int;
  s_wakes : int;
  s_sleeps : int;
  peak_live : int;
  final_live : int;
  rung_max : int;  (** Highest ladder rung any event reached. *)
  mean_power : float;  (** Epoch-mean of {!split_total}. *)
  mean_power_nosleep : float;
      (** Epoch-mean of the power the identical trajectory draws with
          switch-off disabled — bit-identical to the [mean_power] of a
          [~sleep:false] run over the same trace (switch-off never
          changes a routing decision). *)
  saved_ratio : float;
      (** [1 - mean_power/mean_power_nosleep] (0 on an empty session) —
          the fraction of the always-awake power that switch-off saved. *)
  p50_work : float;
  p95_work : float;
      (** Nearest-rank quantiles ({!Routing.Metrics.nearest_rank}) of the
          per-op [delta_evals] work — the deterministic latency proxy
          that flows into campaign rows. Wall-clock per-op latencies are
          the caller's to measure around {!step}. *)
  final : Routing.Evaluate.report;
}

val session : t -> session

(** {1 Registry entry}

    The engine behind the harness figures: route the workload {e as a
    served stream} — Poisson arrivals of the workload communications
    merged with a draining churn stream keyed on the workload itself
    (reproducible and jobs-invariant without an rng argument) — and
    return the final live solution once the churn has passed. *)

val engine :
  ?rate:float ->
  ?sleep:bool ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Routing.Solution.t * session option
(** The final live solution with the served session's summary ([None]
    on an empty workload, where nothing is served). [rate] (default
    {!default_rate}) paces both the workload's arrivals and the
    {!default_churn} churn arrivals; the service runs with {!create}'s
    defaults. @raise Invalid_argument when [rate <= 0]. *)

type Routing.Heuristic.note += Session of session
(** The {!heuristic}'s note (see {!Routing.Heuristic.run_noted}). *)

val heuristic :
  ?name:string -> ?rate:float -> ?sleep:bool -> unit -> Routing.Heuristic.t
(** Registry entry (default name ["SRV"]) wrapping {!engine} via
    {!Routing.Heuristic.of_noted}; its note is the {!Session}. *)

val find : string -> Routing.Heuristic.t option
(** Parse a CLI spelling: ["srv"] (default rate), ["srv8"] / ["SRV(8)"]
    (explicit integer arrival rate, >= 1). [None] for anything else, so
    the CLI can try the next engine's [find]. *)

val default_rate : float
val default_churn : int
val default_idle_epochs : int
