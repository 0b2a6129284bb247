(** Flow-guided s-MP routing: round the Frank–Wolfe fractional flow onto
    at most [s] Manhattan paths per communication.

    The paper's hierarchy XY ⊂ 1-MP ⊂ s-MP ⊂ max-MP (Section 3) brackets
    every routing between the single-path heuristics and the fractional
    {!Frank_wolfe} relaxation. This engine walks the bracket from the top:

    + solve the convex max-MP power relaxation ({!Frank_wolfe.solve_flows});
    + {e decompose} each communication's fractional flow into weighted
      Manhattan paths by path stripping over its bounding-rectangle DAG
      (repeatedly follow the widest residual out-link and peel off the
      bottleneck);
    + {e round} onto the [s] heaviest usable paths, rescaling the shares to
      the communication's rate;
    + {e local-search} the split shares against the discrete Kim–Horowitz
      frequency levels, shifting rate between a communication's paths when
      that lowers the capped penalized power — candidates are scored
      speculatively through the {!Routing.Delta} journal (mark / rollback),
      so a re-split costs O(path length) and bumps
      [Metrics.counters.delta_evals];
    + never do worse than the best single-path heuristic: the final
      solution is compared against the best (feasible-first, then power)
      single-path outcome and the winner is returned.

    Under a fault scenario, decomposed paths crossing a dead link are
    discarded before rounding, communications whose single-path route had
    to detour off the Manhattan rectangle keep that detour untouched, and
    the result passes the usual {!Routing.Repair} guard — s-MP routes
    never traverse a dead link. *)

val engine :
  ?iterations:int ->
  s:int ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Routing.Solution.t
(** The raw engine (no repair guard — use {!heuristic} unless testing).
    [iterations] bounds the Frank–Wolfe steps (default 120).
    @raise Invalid_argument if [s < 1].
    @raise Routing.Repair.No_route if a communication's endpoints are
    disconnected by the fault (via the internal single-path baselines). *)

val heuristic :
  ?name:string -> ?iterations:int -> s:int -> unit -> Routing.Heuristic.t
(** The engine as a registry heuristic named [name] (default ["SMP<s>"]),
    with the {!Routing.Repair} final guard.
    @raise Invalid_argument if [s < 1]. *)

val find : string -> Routing.Heuristic.t option
(** Case-insensitive lookup of the family: ["smp"] (s = 4), ["smp2"],
    ["smp(8)"], … — [None] for anything else (including s < 1), so the
    CLIs can consult this after {!Routing.Heuristic.find}. *)
