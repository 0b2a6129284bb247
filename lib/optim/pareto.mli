(** Multi-objective (Pareto) scoring of routing solutions.

    The paper optimizes model power alone; a routing that wins there can
    still lose on delivered latency once wormhole contention and
    escape-VC detours bite, or degrade catastrophically under link
    faults. This module scores one solution on three axes —

    + {b power}: the Kim–Horowitz model power of {!Routing.Evaluate}
      (bit-identical to [Evaluate.of_loads] on the solution's loads);
    + {b latency}: pooled p50/p95 packet latency from a {!Sim.Network}
      execution of the produced routes;
    + {b resilience}: the fault-degradation slope — how fast the
      penalized model cost grows per killed link under a deterministic
      fault scenario (the E19/E24 axis);

    — and computes non-dominated fronts over sets of named points.
    Everything is deterministic: the simulator carries no RNG, the slope
    fault comes from the caller's seeded chooser, and {!front} preserves
    the input order of the surviving points, so campaign fronts are
    jobs-invariant. *)

type objectives = {
  power : float;  (** Model power (mW); lower is better. *)
  p50 : float;  (** Pooled median packet latency (cycles). *)
  p95 : float;  (** Pooled 95th-percentile packet latency (cycles). *)
  slope : float;
      (** Penalized-cost increase per killed link under the slope fault;
          0 when no fault was applied. *)
}

type point = { pt_name : string; pt_obj : objectives }

val dominates : objectives -> objectives -> bool
(** [dominates a b]: [a] is no worse than [b] on every axis and strictly
    better on at least one (minimization everywhere). Non-finite
    coordinates compare as +infinity, so NaN latencies (an empty measured
    window) lose every comparison on that axis but never poison the
    relation. *)

val front : point list -> point list
(** The non-dominated subset, in the input order. Points with pairwise
    equal objectives all survive (neither dominates), so the front of a
    fixed list is itself a fixed list — deterministic whatever produced
    it. *)

type budget = {
  cycles : int;  (** Measured-cycle budget ({!Sim.Network.run}). *)
  tolerance : float option;  (** Early-exit tolerance; [None] = fixed. *)
  warmup : int option;  (** Warmup override; [None] = [cycles/5]. *)
}

val slope :
  ?fault:Noc.Fault.t ->
  kills:int ->
  Power.Model.t ->
  Routing.Solution.t ->
  float ->
  float
(** [slope ?fault ~kills model solution base] is
    [(penalized(loads under fault) - base) / kills] — finite even when the
    fault overloads (or kills) links the solution uses, thanks to the
    capped penalty of {!Routing.Evaluate.penalized}. [0.] without a fault
    or with [kills <= 0]. *)

val measure :
  ?arena:Sim.Network.Arena.t ->
  budget:budget ->
  ?fault:Noc.Fault.t ->
  kills:int ->
  Power.Model.t ->
  report:Routing.Evaluate.report ->
  Routing.Solution.t ->
  objectives option
(** Score one solution: [None] when the report says infeasible (an
    infeasible routing has no meaningful latency), otherwise the three
    objectives — the report's [total_power] verbatim, the simulated
    pooled p50/p95 under [budget], and {!slope} under [fault]/[kills].
    [arena] shares the simulator's input-link table across calls. *)

val pp_objectives : Format.formatter -> objectives -> unit
val pp_point : Format.formatter -> point -> unit
