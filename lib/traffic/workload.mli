(** Random communication-set generators.

    These reproduce the workloads of the paper's Section 6: uniformly random
    source/sink pairs with weights drawn from a band, and the length-targeted
    variant of Figure 9 where the Manhattan distance of every communication
    is constrained to lie around a target value. *)

type weight = {
  w_lo : float;  (** Inclusive lower bound, Mb/s. *)
  w_hi : float;  (** Exclusive upper bound, Mb/s. *)
}

val weight : lo:float -> hi:float -> weight
(** @raise Invalid_argument unless [0 < lo <= hi] and both are finite. *)

val small : weight
(** U\[100, 1500\] Mb/s — Figure 7(a). *)

val mixed : weight
(** U\[100, 2500\] Mb/s — Figure 7(b). *)

val big : weight
(** U\[2500, 3500\] Mb/s — Figure 7(c). *)

val around : float -> weight
(** [around avg] is U\[avg-250, avg+250\] clamped to stay positive — the
    Figure 8 sweep (see DESIGN.md, under-specified detail #1). *)

val random_pair : Rng.t -> Noc.Mesh.t -> Noc.Coord.t * Noc.Coord.t
(** A uniformly random ordered pair of {e distinct} cores.
    @raise Invalid_argument on a mesh with fewer than two cores. *)

val pair_at_distance :
  Rng.t -> Noc.Mesh.t -> int -> (Noc.Coord.t * Noc.Coord.t) option
(** A uniformly random ordered pair of cores at exactly the given Manhattan
    distance, or [None] when the mesh has no such pair. Exact sampling: the
    offset [(dr, dc)] is drawn proportionally to the number of placements
    [(p - |dr|) * (q - |dc|)]. *)

val uniform :
  Rng.t -> Noc.Mesh.t -> n:int -> weight:weight -> Communication.t list
(** [n] communications with uniformly random distinct endpoints and weights
    uniform in the band. Ids are [0 .. n-1].
    @raise Invalid_argument if [n > 0] on a mesh with fewer than two
    cores. *)

val with_length :
  Rng.t ->
  Noc.Mesh.t ->
  n:int ->
  weight:weight ->
  target:int ->
  Communication.t list
(** Same, but each communication's length is drawn uniformly from
    [{target-1, target, target+1}] intersected with the feasible range
    (Figure 9; DESIGN.md detail #2). *)

val single_pair :
  Rng.t ->
  src:Noc.Coord.t ->
  snk:Noc.Coord.t ->
  n:int ->
  weight:weight ->
  Communication.t list
(** [n] communications sharing the same endpoints (the single-source /
    single-destination scenario of Theorem 1). *)

val keyed_rng : string -> Communication.t list -> Rng.t
(** [keyed_rng key comms] is {!Rng.of_key} over [key] and every
    communication's id, endpoints and rate bits: a stream that is a pure
    function of the workload. An engine run as a routing heuristic is
    handed no generator and draws from this one, so each trial's draws
    are reproducible, jobs-invariant and nested across paired sweeps
    exactly like the workload is. *)
