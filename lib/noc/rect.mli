(** Bounding rectangle of a communication.

    Every Manhattan path from [src] to [snk] stays inside the axis-aligned
    rectangle spanned by the endpoints, and crosses the diagonals
    [D{^(d)}{_k}] of its quadrant one step at a time. {!compile} turns the
    rectangle into that step DAG, once, as int arrays — the structure
    behind the paper's Figure 3 ideal distribution, the SG, IG and PR
    heuristics, fault repair, PathFinder and the Frank–Wolfe relaxation. *)

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

(** {1 The compiled step DAG}

    A core of the rectangle is named by its {e offset}
    [|row - src.row| * (dcol + 1) + |col - src.col|]: the source is [0]
    and the sink is the last offset. A {e slot} is one forward link of the
    rectangle. Slots are laid out step by step (step [k] links a core [k]
    hops from the source to one [k + 1] hops away); within a step, by
    increasing row distance of the tail from the source; and a core's
    horizontal link comes before its vertical one. So a core's out-slots
    are contiguous. *)

type dag = private {
  rect : t;
  ids : int array;  (** Per slot: the mesh link id. *)
  tail : int array;  (** Per slot: the offset of the link's source core. *)
  head : int array;
      (** Per slot: the offset of the link's destination core. *)
  steps : int array;
      (** Slots [steps.(k) .. steps.(k + 1) - 1] form step [k], for
          [0 <= k < length]; [steps.(length)] is the slot count. *)
  out : int array;
      (** Per core offset: its first out-slot (the slot count for the
          sink). *)
}

val compile : Mesh.t -> t -> dag
(** A slot's id is the {!Mesh.step_id} of the source's link in the same
    direction plus the layout's row and column strides.
    @raise Invalid_argument if the source or the sink is off the mesh. *)

val out_degree : dag -> int -> int
(** Number of out-slots of a core offset: 2 inside, 1 on the sink's row or
    column, 0 at the sink. *)

val walk : dag -> (int -> int -> int) -> int array
(** [walk d fork] follows one out-slot per step from the source to the
    sink and returns those slots: a core's only out-slot, or at a two-way
    fork on step [k] whose horizontal slot is [a], [fork k a] ([a] or
    [a + 1]). *)

val path : dag -> int array -> Path.t
(** The Manhattan path through the given slots, one per step in order. *)

val cheapest :
  dag ->
  usable:(int -> bool) ->
  cost:(int -> float) ->
  (int array * float) option
(** [cheapest d ~usable ~cost] is the cheapest source-to-sink chain of
    usable slots under per-slot costs, as its slots (one per step), with
    its cost; [None] when no usable chain joins the corners. A backward
    pass: the steps from last to first, each step's slots in order; a
    core keeps the first of its cheapest out-slots, so ties go to the
    horizontal link and equal costs everywhere give {!Path.xy}. [cost] is
    called exactly once per usable slot whose head already reaches the
    sink. The search behind PR's path extraction, fault repair, PathFinder
    and the Frank–Wolfe subproblem. *)
