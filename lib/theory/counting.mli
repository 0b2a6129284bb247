(** Path counting — Lemma 1 of the paper.

    The number of Manhattan paths from [C(1,1)] to [C(p,q)] is the binomial
    coefficient [C(p+q-2, p-1)]. This module provides the closed form, the
    recurrence [N(u,v) = N(u-1,v) + N(u,v-1)] it is proved from, and the
    bound used for max-MP routings (a communication never needs more paths
    than this count). *)

val binomial : int -> int -> int
(** [binomial n k] is [C(n, k)] ({!Noc.Path.binomial}), exact whenever it
    fits in an OCaml [int].
    @raise Invalid_argument if [k < 0] or [n < k], or if [C(n, k)]
    exceeds [max_int]. *)

val grid_paths : rows:int -> cols:int -> int
(** Lemma 1's closed form: [binomial (rows + cols - 2) (rows - 1)] —
    exact on a 32x32 mesh, [Invalid_argument] from 34x34 on. *)

val grid_paths_recurrence : rows:int -> cols:int -> int
(** Same value by the proof's recurrence (dynamic programming). *)

val max_mp_paths : Traffic.Communication.t -> int
(** Maximum number of distinct paths a max-MP routing can assign to a
    communication: the path count of its bounding rectangle. *)
