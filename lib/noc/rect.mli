(** Bounding rectangle of a communication.

    Every Manhattan path from [src] to [snk] stays inside the axis-aligned
    rectangle spanned by the endpoints, and crosses the diagonals
    [D{^(d)}{_k}] of its quadrant one step at a time. This module enumerates
    the cores and links available to such paths, step by step — the structure
    behind the paper's Figure 3 ideal distribution and behind the IG and PR
    heuristics. *)

type t = private {
  src : Coord.t;
  snk : Coord.t;
  quadrant : Quadrant.t;
  drow : int;  (** [|snk.row - src.row|]. *)
  dcol : int;  (** [|snk.col - src.col|]. *)
}

val make : src:Coord.t -> snk:Coord.t -> t

val length : t -> int
(** Manhattan distance between the endpoints: the number of steps. *)

val contains_core : t -> Coord.t -> bool

val step_of_core : t -> Coord.t -> int
(** Diagonal offset from the source, in [0 .. length]; only meaningful for
    cores inside the rectangle. *)

val cores_on_step : t -> int -> Coord.t list
(** Cores of the rectangle lying on diagonal step [k] (offset [k] from the
    source), ordered by increasing row distance from the source. *)

val out_links : t -> Coord.t -> Mesh.link list
(** The (at most two) forward links leaving a core while staying in the
    rectangle: the horizontal one first if the core is not on the sink
    column, then the vertical one if not on the sink row. *)

val links_on_step : t -> int -> Mesh.link list
(** All links from diagonal step [k] to step [k+1] inside the rectangle,
    for [0 <= k < length]. *)

val cheapest :
  Mesh.t ->
  t ->
  usable:(int -> bool) ->
  cost:(int -> float) ->
  (Path.t * float) option
(** [cheapest mesh t ~usable ~cost] is the cheapest Manhattan path of the
    rectangle under per-link-id costs, with its cost, or [None] when no
    path of usable links joins the corners. A backward pass over the
    diagonal steps: each core tries its {!out_links} in order and keeps
    the first of the cheapest, so ties go to the horizontal link and equal
    costs everywhere give {!Path.xy}. [cost] is called exactly once per
    usable link whose head already reaches the sink. The search behind
    fault repair, PathFinder and the Frank–Wolfe subproblem. *)

val contains_link : t -> Mesh.link -> bool
(** Whether a directed link can appear on some Manhattan path of this
    rectangle (both ends inside, oriented forward). *)

val pp : Format.formatter -> t -> unit
