(** The virtual BEST heuristic: run every policy, keep the cheapest feasible
    solution — exactly how the paper's plots define BEST. *)

type outcome = {
  heuristic : Heuristic.t;
  solution : Solution.t;
  report : Evaluate.report;
}

val run_all :
  ?heuristics:Heuristic.t list ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome list
(** One outcome per heuristic (default: all six), in registry order. The
    fault scenario, when given, is passed to each heuristic and to the
    evaluation. *)

val best_of : outcome list -> outcome option
(** Feasible outcome of minimum total power, if any. *)

val route :
  ?heuristics:Heuristic.t list ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome option
(** [best_of (run_all ...)]. *)

val baseline :
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome
(** The single-path baseline the engines guard their results against:
    the best feasible outcome of {!run_all}, or the one with the least
    {!Evaluate.penalized} power (first on ties) when every heuristic
    fails. *)

val never_worse :
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  base:outcome ->
  Solution.t ->
  Evaluate.report ->
  bool
(** [never_worse ?fault model ~base solution report]: whether an engine's
    candidate [solution], whose evaluation is [report], may replace the
    {!baseline} [base] without doing worse. Feasible first, then total
    power, then {!Evaluate.penalized} power when both fail; ties keep the
    candidate. The guard the s-MP and PathFinder engines apply. *)
