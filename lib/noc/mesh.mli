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
    @raise Invalid_argument if [p < 1] or [q < 1]. *)

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

val link_id : t -> link -> int
(** Dense identifier of a directed link.
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

val all_cores : t -> Coord.t array
(** Row-major enumeration of the cores. *)

val is_horizontal : link -> bool

val pp : Format.formatter -> t -> unit

val pp_link : Format.formatter -> link -> unit
(** Prints as ["(u,v)->(u',v')"]. *)
