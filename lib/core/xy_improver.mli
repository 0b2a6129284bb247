(** The XYI (XY improver) heuristic — Section 5.4 of the paper.

    Start from the XY routing and iteratively unload the most loaded links.
    For every communication crossing the current hottest link, a local
    diversion is attempted: an overloaded {e vertical} link is avoided by
    descending one column earlier and entering its destination core through
    the horizontal link; an overloaded {e horizontal} link is avoided by
    leaving its source core through the vertical link and rejoining the old
    path after its next vertical segment (mirrored per quadrant; see
    DESIGN.md detail #3). The diversion with the best decrease of the
    penalized power is applied and the link list is rebuilt; a link none of
    whose communications can improve is skipped. The process stops when no
    link can be improved.

    Because the initial XY solution may violate capacities, improvement is
    measured with {!Power.Model.penalized_cost}, under which shedding
    overload always pays; the returned solution is judged with the exact
    model as usual. *)

val divert : Noc.Path.t -> int -> Noc.Path.t option
(** [divert path k] is the diverted Manhattan path avoiding the link of
    hop [k] (the [k]-th id of {!Noc.Path.ids}, from 0), or [None] when [k]
    is not a hop index of [path] or the geometry offers no alternative
    (endpoint rows/columns). Used by the annealer's local move. *)

val move_delta :
  Delta.scorer -> Noc.Load.t -> float -> Noc.Path.t -> Noc.Path.t -> float
(** [move_delta sc loads rate old_p new_p] is the change of penalized cost
    of moving [rate] units from [old_p] to [new_p], scored through [sc]'s
    memoized cost table without mutating [loads]. Links on both paths
    cancel; the sum runs over the other links in [Hashtbl] order. Shared
    with the annealer. *)

val route :
  ?order:Traffic.Communication.order ->
  ?max_moves:int ->
  ?fault:Noc.Fault.t ->
  Noc.Mesh.t ->
  Power.Model.t ->
  Traffic.Communication.t list ->
  Solution.t
(** [max_moves] caps the number of applied diversions (default
    [length comms * rows * cols], the paper's bound). [order] is accepted
    for registry uniformity but has no effect on the result beyond the
    initial tie-breaks. *)

val improve :
  ?max_moves:int -> ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t ->
  Solution.t
(** The same local search started from an arbitrary single-path solution
    instead of the XY routing — a refinement pass that can be applied on
    top of any heuristic's output (never increases the penalized power).
    @raise Invalid_argument on multi-path solutions. *)
