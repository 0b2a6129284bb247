(** Arbitrary unit-step routes.

    A walk is a sequence of 4-neighbor hops with no monotonicity requirement,
    unlike {!Path.t} which is strictly Manhattan. Walks appear when a fault
    scenario ({!Fault}) leaves no Manhattan path between two cores and the
    router must detour around the holes; {!detour_hops} measures the price
    paid over the Manhattan distance. *)

type t = private { cores : Coord.t array }

val of_cores : Coord.t array -> t
(** @raise Invalid_argument if fewer than two cores are given or any
    consecutive pair is not one mesh step apart. Revisiting a core is
    permitted. *)

val of_path : Path.t -> t
(** Embed a Manhattan path as a walk ([detour_hops] is 0). *)

val src : t -> Coord.t
val snk : t -> Coord.t

val length : t -> int
(** Number of links. At least 1, and at least the Manhattan distance between
    the endpoints. *)

val cores : t -> Coord.t array

val iter_ids : Mesh.t -> t -> (int -> unit) -> unit
(** Applies the function to the {!Mesh.link_id} of every link traversed,
    in hop order (a revisited link once per visit).
    @raise Invalid_argument if a hop leaves the mesh (checked per hop). *)

val ids : Mesh.t -> t -> int array
(** The [length] link ids of {!iter_ids}, in hop order. *)

val detour_hops : t -> int
(** [length t - manhattan (src t) (snk t)]: extra hops beyond the shortest
    route. 0 exactly when the walk is Manhattan. Always even on a mesh. *)

val is_manhattan : t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
