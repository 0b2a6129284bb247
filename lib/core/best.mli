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

val penalized : ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t -> float
(** {!Evaluate.penalized} of the solution's loads: how far from feasible
    an infeasible routing is. *)

val baseline :
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome
(** The single-path baseline the engines guard their results against:
    the best feasible outcome of {!run_all}, or the least-{!penalized}
    one (first on ties) when every heuristic fails. *)
