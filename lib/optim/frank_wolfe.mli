(** Convex lower bound on max-MP dynamic power via Frank–Wolfe.

    With continuous frequencies, unlimited splitting and no leakage, the
    minimum dynamic power of a Manhattan routing is a convex multicommodity
    flow problem: each communication ships one unit of flow through the DAG
    of its bounding rectangle and the objective is
    [sum over links of P_dyn(load)]. The Frank–Wolfe method applies
    directly — the linearized subproblem decomposes into one shortest-path
    computation per communication over its DAG, weighted by the objective
    gradient.

    The returned [objective] is attained by a feasible fractional flow, so
    it {e upper}-bounds the max-MP optimum, while [objective - gap] is a
    certified {e lower} bound (the Frank–Wolfe duality gap); both therefore
    lower-bound every feasible s-MP and 1-MP routing's dynamic power, up to
    the leakage term which this relaxation drops. *)

type result = {
  loads : Noc.Load.t;  (** Link loads of the final fractional flow. *)
  objective : float;  (** Dynamic power of the final flow. *)
  gap : float;  (** Final duality gap: [objective - gap <= optimum]. *)
  iterations : int;
}

type flow = {
  comm : Traffic.Communication.t;
  dag : Noc.Rect.dag;
      (** The compiled step DAG of the communication's bounding rectangle. *)
  shares : float array;
      (** Flow on each slot of [dag] (link [dag.ids.(s)]), in rate units.
          Conserved: at every rectangle core but the endpoints, inflow
          equals outflow, and the source emits exactly [comm.rate]. *)
}

val solve :
  ?iterations:int ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  result
(** Runs [iterations] Frank–Wolfe steps (default 200) with exact line
    search, starting from the per-communication ideal diagonal spread.
    Only [p0], [alpha] and [gbps_scale] of the model are used. *)

val solve_flows :
  ?iterations:int ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  result * flow list
(** {!solve}, also returning the final fractional flow of every
    communication (in input order) — the raw material path-stripping
    decomposes into weighted Manhattan paths ({!Smp}). *)

val lower_bound :
  ?iterations:int ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  float
(** [max 0 (objective - gap)] of {!solve} — a certified lower bound on the
    dynamic power of any Manhattan routing of the instance. *)

val min_overload :
  ?iterations:int ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  float * result
(** Minimize [sum over links of max(0, load - capacity)^2] over fractional
    Manhattan flows. Returns the final worst excess (in rate units) and the
    flow; a worst excess of 0 is a {e constructive certificate} that a
    bandwidth-feasible max-MP routing exists — even when every single-path
    heuristic fails. Default 400 iterations. *)

val fractionally_feasible :
  ?iterations:int ->
  ?tolerance:float ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  bool
(** Whether {!min_overload} reaches (relative) tolerance [1e-6] — i.e. the
    instance is routable once splitting is allowed. Inconclusive [false]
    answers are possible (finite iterations). *)
