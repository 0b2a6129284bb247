(** Incremental delta-evaluation engine for the routing hot path.

    Every heuristic scores candidate paths by summing {!Power.Model}
    costs over the links a candidate touches; a campaign performs
    millions of such evaluations, and each discrete-mode cost paid a
    [Float.pow] before this module existed. [Delta] provides the two
    facets that make the hot path incremental:

    - a {b scorer}: per-link cost lookups backed by the memoized
      {!Power.Model.table} (one pow per frequency level instead of one
      per evaluation) plus planned-occupancy reads, all counted in
      {!Metrics.counters.delta_evals};
    - a {b tracked engine} ([t]): a running {!Evaluate.report}-equivalent
      state — per-level link counts, active-link count, overload set, max
      effective load — updated in O(path length) on path add / remove /
      swap, with an apply/undo journal for speculative scoring. In
      discrete mode {!report} reassembles the report in O(levels) instead
      of O(links).

    {b Bit-identity.} Everything here is exact, not approximate:
    {!report} returns the very report a from-scratch
    {!Evaluate.of_loads} would compute (the full evaluator totals its
    sums in a canonical order that is a pure function of the maintained
    state — see {!Evaluate.report_of_tally}), and a table-backed cost
    lookup returns the very float the direct
    {!Power.Model.penalized_cost_capped} call would. The differential
    oracle in [test_delta.ml] enforces both. *)

(** {1 Scorer} *)

type scorer
(** Immutable scoring context: a model's memoized cost table over a load
    vector. Builds are wrapped in a ["delta-table"] {!Metrics.with_span}. *)

val scorer : Power.Model.t -> Noc.Load.t -> scorer

val scorer_loads : scorer -> Noc.Load.t

val cost_at : scorer -> factor:float -> float -> float
(** [cost_at sc ~factor load] ≡ [Power.Model.penalized_cost_capped model
    ~factor load], bit-identical, through the memoized table. Bumps
    [delta_evals]. *)

val cost : scorer -> int -> float -> float
(** {!cost_at} with the factor of the given link id, read from the fault
    the loads carry. *)

val cost_link : scorer -> Noc.Mesh.link -> float -> float

val occupancy : Noc.Load.t -> dead:float -> rate:float -> int -> float
(** Planned effective occupancy of a link were [rate] more units routed
    over it: [(load + rate) / factor], or [dead] on a dead link — the
    scoring primitive of SG's fork choice and PR's path extraction
    (which use different [dead] sentinels). Bumps [delta_evals]. *)

val occupancy_link : Noc.Load.t -> dead:float -> rate:float -> Noc.Mesh.link -> float

(** {1 Tracked engine} *)

type t

val create : ?fault:Noc.Fault.t -> Power.Model.t -> Noc.Mesh.t -> t
(** Empty load vector (optionally carrying a fault) with a fresh
    classification state. *)

val of_loads : Power.Model.t -> Noc.Load.t -> t
(** Adopt an existing load vector: one classification scan, then the
    vector is {e shared} — mutate it only through this engine, or the
    maintained state goes stale. *)

val loads : t -> Noc.Load.t
(** The underlying (shared) load vector — for reads. *)

val model : t -> Power.Model.t

val scorer_of : t -> scorer
(** A scorer over the engine's load vector, reusing its table. *)

val add : t -> int -> float -> unit
(** [add t id delta] routes [delta] (possibly negative) over one link:
    the {!Noc.Load.add} mutation plus O(1) classification upkeep. *)

val add_link : t -> Noc.Mesh.link -> float -> unit
val add_path : t -> Noc.Path.t -> float -> unit
val remove_path : t -> Noc.Path.t -> float -> unit
val add_walk : t -> Noc.Walk.t -> float -> unit
val remove_walk : t -> Noc.Walk.t -> float -> unit

val add_route : t -> Solution.route -> unit
(** Route every path and detour walk of the route at its share. *)

val remove_route : t -> Solution.route -> unit
(** Inverse of {!add_route}. *)

val report : t -> Evaluate.report
(** The report a from-scratch [Evaluate.of_loads (model t) (loads t)]
    would return, bit-identical field by field — without rescanning the
    vector in discrete mode (O(levels) plus overload materialization;
    max recomputation only after a decrease dethroned the cached
    maximum). Bumps [feasibility_checks], like the full evaluator.
    [detour_hops] is 0, as with any loads-only evaluation. *)

(** {2 Speculation journal}

    [mark]/[rollback] let a search loop apply a candidate, score the
    resulting state, and restore the previous state {e bit-exactly}
    without copying the load vector: while a mark is outstanding every
    mutation records the link's previous raw load and class, and
    rollback restores the recorded values verbatim (float subtraction
    does not invert addition, and {!Noc.Load.add} clamps near-zero
    residuals — re-subtracting would drift). Marks nest LIFO: always
    resolve the most recent mark first, by either {!rollback} or
    {!commit}. *)

type mark

val mark : t -> mark

val rollback : t -> mark -> unit
(** Undo every mutation since the mark, restoring loads and
    classification state bit-exactly.
    @raise Invalid_argument with no outstanding mark. *)

val commit : t -> mark -> unit
(** Keep the mutations since the mark. The journal is freed once no
    marks remain outstanding.
    @raise Invalid_argument with no outstanding mark. *)
