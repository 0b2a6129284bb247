(** The [p x q] mesh interconnect.

    Neighboring cores are connected by two opposite unidirectional links.
    Each directed link is given a dense integer identifier in
    [0 .. num_links - 1] so that link-indexed state (loads, frequencies,
    simulator queues) can live in flat arrays. *)

type t = private { rows : int; cols : int }

type link = {
  src : Coord.t;  (** Transmitting core. *)
  dst : Coord.t;  (** Receiving core; always a 4-neighbor of [src]. *)
}

type step = East | West | South | North
(** Cardinal direction of a directed link ([South] increases the row). *)

val create : rows:int -> cols:int -> t
(** [create ~rows:p ~cols:q] builds a [p x q] mesh.
    @raise Invalid_argument if [p < 1] or [q < 1], or if [4pq] exceeds
    [Sys.max_array_length], so that every link- or core-indexed array
    fits. *)

val square : int -> t
(** [square p] is [create ~rows:p ~cols:p]. *)

val rows : t -> int
val cols : t -> int

val num_cores : t -> int

val num_links : t -> int
(** [2 * (p*(q-1) + (p-1)*q)]. *)

val in_mesh : t -> Coord.t -> bool

val step_of_link : link -> step
(** @raise Invalid_argument if [dst] is not a 4-neighbor of [src]. *)

val link_exists : t -> link -> bool
(** Both endpoints are in the mesh and one step apart. *)

val step_id : t -> Coord.t -> step -> int
(** [step_id t c s] is the dense identifier of the link leaving core [c]
    in direction [s]. The four directions are stored one after another
    (East, West, South, North); within one direction the ids are row-major
    by source core: one column further adds 1, one row further adds
    [cols - 1] to a horizontal link and [cols] to a vertical one. This is
    the one copy of the layout: {!link_id}, {!iter_neighbors},
    [Rect.compile], [Path.iter_ids] and [Walk.iter_ids] all number links
    through it. Unchecked: the caller guarantees that the link exists. *)

val link_id : t -> link -> int
(** Dense identifier of a directed link: {!step_id} of its source and
    direction.
    @raise Invalid_argument if the link does not exist in the mesh. *)

val link_of_id : t -> int -> link
(** Inverse of {!link_id}.
    @raise Invalid_argument on an out-of-range identifier. *)

val link : src:Coord.t -> dst:Coord.t -> link

val move : t -> Coord.t -> step -> Coord.t option
(** Neighbor of a core in a given direction, when it exists. *)

val neighbors : t -> Coord.t -> Coord.t list
(** Destination cores of the outgoing links ([succ] in the paper), in
    [East; West; South; North] order, restricted to the mesh. *)

val iter_links : t -> (int -> link -> unit) -> unit

val core_index : t -> Coord.t -> int
(** Row-major index of a core in [0 .. num_cores - 1], the one copy of the
    core numbering. Unchecked: the caller guarantees that the core is in
    the mesh. *)

val core_of_index : t -> int -> Coord.t
(** Inverse of {!core_index}. *)

val all_cores : t -> Coord.t array
(** Row-major enumeration of the cores: {!core_of_index} of [0, 1, ...]. *)

val iter_neighbors : t -> Coord.t -> (int -> int -> int -> unit) -> unit
(** [iter_neighbors t c f] calls [f nb out into] for each neighbour of
    [c], in {!neighbors} order (East, West, South, North): [nb] is the
    neighbour's {!core_index}, [out] the id of the link [c -> nb] and
    [into] the id of [nb -> c]. No link record is built. Unchecked, like
    {!step_id}: the caller guarantees that [c] is in the mesh. *)

val reach : t -> usable:(int -> bool) -> src:Coord.t -> int array
(** Breadth-first search from [src] over the links whose id satisfies
    [usable]: per {!core_index}, the index of the core it is first reached
    from ([src] is its own parent), or [-1] when it is unreachable. FIFO,
    neighbours in {!iter_neighbors} order: following parents back gives a
    shortest usable walk, the same on every run. *)

val pp : Format.formatter -> t -> unit

val pp_link : Format.formatter -> link -> unit
(** Prints as ["(u,v)->(u',v')"]. *)
