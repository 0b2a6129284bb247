(** Simulated-annealing single-path router.

    Not one of the paper's heuristics: a slow, near-optimal reference used
    to estimate "the optimal solution for small problem instances" (the
    paper's future work) on instances too large for exact branch-and-bound.
    The state is one Manhattan path per communication; moves re-route a
    random communication, either on a fresh uniform random path or by a
    local diversion; acceptance is Metropolis on the penalized power with
    geometric cooling, keeping the best state ever visited. *)

val route :
  ?seed:int ->
  ?iterations:int ->
  ?restarts:int ->
  Noc.Mesh.t ->
  Power.Model.t ->
  Traffic.Communication.t list ->
  Solution.t
(** Defaults: seed 1, 60_000 iterations per restart, 3 restarts. The
    temperature cools from 0.02 to 1e-4 of a power scale of the instance.
    Deterministic for a given seed.
    The result may be infeasible only if the annealer never found a
    feasible state. *)
