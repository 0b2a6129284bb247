(** System-level communications to be routed.

    Following the paper, a communication [gamma_i = (src, snk, delta_i)] is a
    bandwidth request of [rate] (Mb/s here) between two distinct cores,
    irrespective of the application that generates it. *)

type t = private {
  id : int;  (** Unique within a problem instance. *)
  src : Noc.Coord.t;
  snk : Noc.Coord.t;
  rate : float;  (** Requested bandwidth [delta_i], > 0. *)
}

val make : id:int -> src:Noc.Coord.t -> snk:Noc.Coord.t -> rate:float -> t
(** @raise Invalid_argument if [src = snk], [rate <= 0] or [rate] is not
    finite. *)

val length : t -> int
(** Manhattan distance between the endpoints, i.e. the length [l_i] of every
    admissible path. *)

val quadrant : t -> Noc.Quadrant.t

val rect : t -> Noc.Rect.t

val with_rate : t -> rate:float -> t
(** Same endpoints with a different rate (used when splitting communications
    for multi-path routing). *)

val with_id : t -> id:int -> t

val total_rate : t list -> float

val equal : t -> t -> bool
(** Structural equality (including id). *)

(** Processing orders used by the greedy heuristics. The paper processes
    communications by decreasing weight; the other criteria are kept for the
    ablation study. *)
type order =
  | By_rate_desc  (** Decreasing [delta_i] (the paper's choice). *)
  | By_length_desc  (** Decreasing Manhattan length. *)
  | By_rate_per_length_desc  (** Decreasing [delta_i / l_i]. *)

val sort : order -> t list -> t list
(** Stable sort by the given criterion (ties keep list order). *)

val pp : Format.formatter -> t -> unit
