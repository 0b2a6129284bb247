(** Live fault-event recovery: deterministic schedules, escalating
    incremental repair, graceful degradation.

    Static fault sweeps (E19) measure routing {e into} a broken mesh;
    this engine measures surviving topology change {e under} an
    already-routed solution — the regime an online routing service lives
    in. A {!Noc.Fault.Schedule} replays a timeline of kill / degrade /
    restore events; on each event {!step} repairs the current solution
    through a bounded escalation ladder, every rung scored through the
    {!Routing.Delta} mark/rollback journal:

    + {b keep} — routes whose links all survive stay untouched;
    + {b local repair} — severed routes take the cheapest surviving
      Manhattan path, or a shortest detour walk
      ({!Routing.Repair.local_route});
    + {b neighborhood negotiation} — PathFinder rip-up-and-reroute
      ({!Pathfinder.refine}) restricted to the routes crossing the
      faulted or overloaded links, under a small iteration budget;
    + {b global negotiation} — the same engine over every live route;
    + {b graceful degradation} — typed shedding of the lightest
      offending communications until the remainder is feasible. Never a
      crash: the empty solution is feasible.

    Negotiation history persists across events (links that keep failing
    stay repulsive), and previously-shed communications are speculatively
    readmitted after each event once capacity returns.

    Everything is deterministic: schedules come from the seeded
    [choose]-callback style, repair processes routes in solution order,
    and each {!report}'s [eval] is rebuilt canonically so it bit-matches
    a from-scratch {!Routing.Evaluate.of_loads} on {!solution}. The
    engine bumps [recover_events], [recover_sheds] and
    [recover_rung_max] (plus the usual repair/negotiation counters) on
    {!Routing.Metrics}. *)

type shed_reason =
  | Disconnected
      (** The fault cut every path between the endpoints (shed during
          local repair). *)
  | Budget_exhausted
      (** Still infeasible after negotiation rungs truncated by the
          per-event iteration budget. *)
  | Infeasible_overload
      (** Still infeasible after full-length negotiation: the surviving
          capacity cannot carry everything. *)

type shed = { comm : Traffic.Communication.t; reason : shed_reason }

type report = {
  event : Noc.Fault.Schedule.event;  (** The event just survived. *)
  rung : int;
      (** Highest escalation rung reached, 1..5 (1 = nothing to do). *)
  live : int;  (** Routed communications after the event. *)
  shed_now : shed list;  (** Shed by this event, chronological. *)
  readmitted : Traffic.Communication.t list;
      (** Previously-shed communications re-routed by this event. *)
  survival : float;  (** [live /. total] (1. on an empty instance). *)
  power_before : float;  (** Total power before the event. *)
  power_after : float;  (** = [eval.total_power]. *)
  eval : Routing.Evaluate.report;
      (** Canonical evaluation of {!solution} under the current fault —
          bit-identical to a from-scratch [Evaluate.of_loads]. *)
  passes : int;  (** Negotiation sweeps run (rungs 3–4). *)
  rips : int;  (** Routes ripped off convicted links. *)
  reroutes : int;  (** Local repair / readmission attempts. *)
  work : Routing.Metrics.counters;  (** Counter delta of this event. *)
}

type t
(** Mutable recovery state: the current fault, the per-communication
    routes (or shed markers), and the persistent negotiation history. *)

val create :
  ?fault:Noc.Fault.t -> ?budget:int -> Power.Model.t -> Routing.Solution.t -> t
(** Adopt an initial solution (routed under [fault], default healthy).
    Each event runs at most 4 neighborhood and 16 global negotiation
    sweeps; [budget] (default 20) caps the two together — when it
    truncates a rung, sheds are typed {!Budget_exhausted}.
    @raise Invalid_argument on a negative budget. *)

val step : t -> Noc.Fault.Schedule.event -> report

val run :
  ?fault:Noc.Fault.t ->
  ?budget:int ->
  Power.Model.t ->
  Routing.Solution.t ->
  Noc.Fault.Schedule.t ->
  t * report list
(** {!create} then {!step} over the whole schedule, in order.
    @raise Invalid_argument when the schedule's mesh differs from the
    solution's. *)

val fault : t -> Noc.Fault.t
(** The fault scenario after the events stepped so far. *)

val solution : t -> Routing.Solution.t
(** The live routes, in original solution order (shed ones omitted). *)

val shed : t -> shed list
(** Currently-shed communications, in original solution order. *)

val engine :
  ?events:int ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Routing.Solution.t * report list option
(** The engine behind {!heuristic}: route the instance with the best
    single-path heuristic, draw an [events]-long (default 8) schedule
    from a generator keyed on the workload itself (reproducible and
    jobs-invariant without an rng argument), survive it, and return the
    final live solution with its per-event reports ([None] on an empty
    workload, where no schedule runs).
    @raise Invalid_argument on negative [events]. *)

type Routing.Heuristic.note += Reports of report list
(** The {!heuristic}'s note (see {!Routing.Heuristic.run_noted}). *)

val heuristic : ?name:string -> ?events:int -> unit -> Routing.Heuristic.t
(** Registry entry (default name ["REC"]) wrapping {!engine} via
    {!Routing.Heuristic.of_noted}, for the harness figures and the CLI;
    its note is the {!Reports} timeline. *)

val find : string -> Routing.Heuristic.t option
(** Parse a CLI spelling: ["rec"] (default events), ["rec12"] /
    ["REC(12)"] (explicit count, >= 0). [None] for anything else, so the
    CLI can try the next engine's [find]. *)

val shed_lightest :
  Routing.Delta.t ->
  Routing.Evaluate.report ->
  ('k * Routing.Solution.route) list ->
  ('k -> Routing.Solution.route -> unit) ->
  unit
(** [shed_lightest eng rep lives shed], rung 5 of this ladder and of
    {!Online}'s: while the engine's report ([rep], then a fresh read
    after each shed) is infeasible, remove the lightest route of [lives]
    crossing an overloaded link, the first in [lives] order on ties, and
    call [shed] on its key and route. *)

val readmit :
  Routing.Delta.t -> Traffic.Communication.t -> Routing.Solution.route option
(** Speculative readmission, shared with {!Online}: add
    {!Routing.Repair.local_route}'s route for a shed communication (under
    the fault the engine's loads carry) under a journal mark and keep it
    only when the whole state stays feasible; otherwise roll back
    bit-exactly and return [None]. *)

val pp_reason : Format.formatter -> shed_reason -> unit

val default_events : int
