(** Negotiated-congestion rip-up-and-reroute (the PathFinder scheme of
    the FPGA routing literature, retargeted at the power-aware NoC
    objective).

    Every communication is routed against the per-link negotiated cost

    {v base × (1 + present) × (1 + history) v}

    where [base] is the {e marginal} memoized penalized power of adding
    the communication's rate to the link (two {!Routing.Delta.cost}
    journal lookups, counted in [delta_evals]), [present] is the link's
    current overload factor under the fault-effective capacity
    ({!Noc.Load.overload}), and [history] accumulates on every link the
    feasibility report convicts, pass after pass. Congested links thus
    get monotonically more repulsive until the communications crossing
    them negotiate their way onto disjoint resources — or an iteration
    cap fires and the best-effort routing stands.

    Per-communication search is a two-stage affair mirroring
    {!Routing.Repair}: the cheapest Manhattan path of the bounding
    rectangle first ({!Routing.Repair.cheapest_manhattan}, whose search
    fault repair runs under marginal power),
    widening to a full-mesh Dijkstra walk when a fault cut the rectangle
    or when the rectangle's best path still overloads a link and a
    strictly cheaper walk exists. Candidate scoring is
    O(path length) via the delta journal; failed reroutes roll back
    through its mark/rollback, bit-exactly.

    The engine bumps [pf_iterations] (one per sweep) and [pf_rips] (one
    per rerouted communication that crossed an overloaded link) on
    {!Routing.Metrics}. *)

type outcome = {
  solution : Routing.Solution.t;
  report : Routing.Evaluate.report;
      (** Bit-identical to rescoring [solution] from scratch with
          {!Routing.Evaluate.solution}: the final loads are rebuilt
          canonically (routes in input order, paths before detours),
          never read off the rip-up history, whose float cancellations
          are not exact. *)
  iterations : int;  (** Sweeps actually run (>= 1). *)
  rips : int;  (** Rerouted communications that crossed an overloaded link. *)
}

val negotiate :
  ?iterations:int ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome
(** The raw engine: route everything once (heaviest communication
    first), then, while the report is infeasible, rip up and reroute
    every communication, heaviest first, until [iterations] (default 32,
    must be >= 1) sweeps have run. This is {!refine}'s loop, and as there
    a reroute that finds nothing keeps its old route. Deterministic: no
    randomness, fixed processing order, canonical final accounting.
    Raises {!Routing.Repair.No_route} when the initial pass finds a
    communication's endpoints disconnected by the fault. *)

type refinement = {
  routes : Routing.Solution.route array;
      (** The candidate routes after refinement, in the caller's order
          (unrouted candidates keep their old route). *)
  feasible : bool;  (** The engine's final report was feasible. *)
  passes : int;  (** Negotiation sweeps actually run (0 when already
                     feasible or [iterations] is 0). *)
  rips : int;  (** Candidates ripped off a convicted link. *)
}

val refine :
  ?iterations:int ->
  history:float array ->
  Routing.Delta.t ->
  Routing.Solution.route array ->
  refinement
(** Negotiation over an {e existing} journal whose loads must already
    contain the given routes (plus any fixed background traffic): rip up
    and reroute only those candidates, heaviest first, until the report
    is feasible or [iterations] (default 32, may be 0) sweeps have run.
    [history] belongs to the caller and is grown in place on convicted
    links, so repulsion persists across calls. A candidate whose
    reroute finds nothing keeps its old route (rolled back bit-exactly)
    instead of raising. Bumps [pf_iterations]/[pf_rips].
    The incremental recovery engine's neighborhood and global rungs. *)

type annotation = {
  a_iterations : int;  (** Negotiation sweeps the {!engine} run made. *)
  a_rips : int;  (** Its rips, as in {!outcome}. *)
  a_kept : bool;
      (** Whether the negotiated solution beat the single-path baseline
          (when [false] the engine returned the baseline). *)
}

type Routing.Heuristic.note += Negotiation of annotation
(** The {!heuristic}'s note (see {!Routing.Heuristic.run_noted}). *)

val engine :
  ?iterations:int ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Routing.Solution.t * annotation option
(** {!negotiate} guarded never-worse than the best single-path
    heuristic ({!Routing.Best}): feasible beats infeasible, then lower
    total power, then lower penalized power when both fail. Returns the
    negotiation's annotation next to the solution ([None] on an empty
    workload, where nothing is negotiated). *)

val heuristic :
  ?name:string -> ?iterations:int -> unit -> Routing.Heuristic.t
(** Registry entry (default name ["PF"]) wrapping {!engine} via
    {!Routing.Heuristic.of_noted}, for the harness figures and the CLI;
    its note is the {!Negotiation} annotation. *)

val find : string -> Routing.Heuristic.t option
(** Parse a CLI spelling: ["pf"] (default cap), ["pf8"] / ["PF(8)"]
    (explicit cap, >= 1). [None] for anything else, so the CLI can try
    the next engine's [find]. *)
