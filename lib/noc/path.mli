(** Manhattan (shortest) paths between two cores.

    A Manhattan path is a monotone staircase: every hop moves one step closer
    to the sink, so its length is exactly the Manhattan distance between the
    endpoints. A path is represented by its endpoints and the sequence of
    axis choices; the actual cores and link ids are derived. *)

type move =
  | H  (** One hop along the column (horizontal) axis, toward the sink. *)
  | V  (** One hop along the row (vertical) axis, toward the sink. *)

type t = private {
  src : Coord.t;
  snk : Coord.t;
  moves : move array;  (** Exactly [|drow|] [V]s and [|dcol|] [H]s. *)
}

val make : src:Coord.t -> snk:Coord.t -> move array -> t
(** @raise Invalid_argument if the move counts do not match the endpoint
    offsets. *)

val of_cores : Coord.t array -> t
(** Rebuild a path from the full core sequence (as produced by {!cores}).
    @raise Invalid_argument if the sequence is empty, not unit-step, or not
    monotone toward the last core. *)

val xy : src:Coord.t -> snk:Coord.t -> t
(** The XY route: horizontally first (all [H] moves), then vertically. *)

val yx : src:Coord.t -> snk:Coord.t -> t
(** The YX route: vertically first. *)

val src : t -> Coord.t
val snk : t -> Coord.t

val length : t -> int
(** Number of links, i.e. the Manhattan distance between the endpoints. *)

val quadrant : t -> Quadrant.t

val cores : t -> Coord.t array
(** The [length + 1] cores traversed, source first. *)

val iter_ids : Mesh.t -> t -> (int -> unit) -> unit
(** Applies the function to the {!Mesh.link_id} of every link traversed,
    in hop order. The ids come from the moves through {!Mesh.step_id}.
    @raise Invalid_argument if either endpoint is off the mesh (checked
    once: a Manhattan path stays inside its endpoints' rectangle). *)

val ids : Mesh.t -> t -> int array
(** The [length] link ids of {!iter_ids}, in hop order. *)

val bends : t -> int
(** Number of direction changes along the path ([xy] and [yx] have at most
    one; a straight path has zero). *)

val equal : t -> t -> bool

val two_bend_all : src:Coord.t -> snk:Coord.t -> t list
(** All Manhattan paths with at most two bends. When the endpoints differ in
    both coordinates there are exactly [manhattan src snk] of them: the two
    one-bend L-paths plus the H-V-H and V-H-V Z-paths. *)

val fold_all : ('a -> t -> 'a) -> 'a -> src:Coord.t -> snk:Coord.t -> 'a
(** Folds over {e all} Manhattan paths between the endpoints, in
    lexicographic move order ([H] before [V]). Beware: there are
    [C(length, |drow|)] of them (Lemma 1). *)

val binomial : int -> int -> int
(** [binomial n k] is [C(n, k)], exact whenever it fits in an OCaml [int]
    (the product is reduced by a gcd before each step, so no intermediate
    exceeds the result).
    @raise Invalid_argument if [k < 0] or [n < k], or if [C(n, k)]
    exceeds [max_int]. *)

val count : src:Coord.t -> snk:Coord.t -> int
(** Number of Manhattan paths, [C(dr + dc, dr)] (Lemma 1 of the paper),
    by {!binomial}.
    @raise Invalid_argument if the count exceeds [max_int]. *)

val random : choose:(int -> int) -> src:Coord.t -> snk:Coord.t -> t
(** A uniformly random Manhattan path. [choose n] must return a uniform
    integer in [0 .. n-1]. *)

val pp : Format.formatter -> t -> unit
(** Prints the core sequence. *)
