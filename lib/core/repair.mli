(** Fault repair of routing solutions.

    Turns any solution into one that avoids the dead links of a fault
    scenario. Every heuristic runs this as a final guard, so a
    fault-oblivious policy (or a fault-aware one cornered into a dead end)
    still produces usable routes. Degraded links are left alone — they
    carry traffic, just at reduced capacity. *)

exception No_route of Traffic.Communication.t
(** The fault disconnects the communication's endpoints entirely. *)

val solution : Noc.Fault.t -> Power.Model.t -> Solution.t -> Solution.t
(** [solution fault model s] keeps every route of [s] whose links all
    survive and re-routes the others, in solution order against running
    loads: first trying the cheapest surviving Manhattan path of the
    bounding rectangle (marginal capped penalized power), then the shortest
    detour walk over the surviving links. A multi-path route with any dead
    path collapses to a single repaired route. Deterministic; the identity
    on trivial faults.
    @raise No_route when a communication's endpoints are disconnected. *)

val route_usable : Noc.Fault.t -> Solution.route -> bool
(** Every path and detour walk of the route avoids the fault's dead
    links. What {!solution} uses to decide which routes to keep — exposed
    so an incremental engine ([Optim.Recover]) can make the same call. *)

val detour :
  Noc.Fault.t ->
  Noc.Mesh.t ->
  src:Noc.Coord.t ->
  snk:Noc.Coord.t ->
  Noc.Walk.t option
(** Shortest walk over the surviving links (BFS), Manhattan or not; [None]
    when the endpoints are disconnected. *)

val local_route :
  Noc.Fault.t ->
  Delta.scorer ->
  Traffic.Communication.t ->
  Solution.route option
(** Local repair of one communication against the scorer's loads, which
    must carry the fault: the cheapest surviving Manhattan path of its
    bounding rectangle (marginal capped penalized power through the
    scorer's memoized table), else the shortest {!detour} walk, else
    [None] when the endpoints are disconnected. Counts one
    [detour_searches]; the loads are left untouched. What {!solution}
    applies to each cut route, shared with the incremental engines
    ([Optim.Recover], [Optim.Online]). *)
