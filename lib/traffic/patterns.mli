(** Classical synthetic NoC traffic patterns.

    The paper evaluates uniformly random communications; these standard
    patterns (Dally & Towles) stress routing policies in structured ways —
    transpose and tornado defeat dimension-ordered routing by design — and
    are used by the ablation benchmarks. Each permutation pattern makes
    every core send [rate] Mb/s to its image (fixed points are skipped). *)

type t =
  | Transpose  (** [(u,v) -> (v,u)]: square meshes only. *)
  | Bit_complement
      (** Core index [i -> complement i]; power-of-two core count. *)
  | Bit_reverse  (** Core index bits reversed; power-of-two core count. *)
  | Shuffle  (** Core index rotated left one bit; power-of-two count. *)
  | Tornado
      (** [(u,v) -> (u, (v-1 + ceil(q/2) - 1) mod q + 1)]: half-ring hop in
          every row. *)
  | Neighbor  (** [(u,v) -> (u, v+1)], wrapping to column 1. *)

val all : t list
val name : t -> string
val find : string -> t option

val is_applicable : t -> Noc.Mesh.t -> bool
(** Whether the mesh satisfies the pattern's shape requirements. *)

val communications :
  t -> rate:float -> Noc.Mesh.t -> Communication.t list
(** The pattern's communication set; ids are assigned in row-major source
    order.
    @raise Invalid_argument when [not (is_applicable t mesh)] or
    [rate <= 0]. *)

val hotspot :
  Rng.t ->
  Noc.Mesh.t ->
  n:int ->
  hotspot:Noc.Coord.t ->
  bias:float ->
  weight:Workload.weight ->
  Communication.t list
(** [n] random communications of which a [bias] fraction (in [\[0,1\]])
    sink at the hotspot core; the rest are uniform.
    @raise Invalid_argument on a bias outside [\[0,1\]], a hotspot
    outside the mesh, or [n > 0] on a mesh with fewer than two cores. *)
