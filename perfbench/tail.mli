(** The benchmark's latency summary: the median plus the highest
    percentile that still has at least ten samples beyond it. *)

type t = {
  n : int;  (** Sample count. *)
  p50 : float;
  tail_label : string;
      (** One of p50, p90, p95, p99, p99.9, p99.99; ["p50"] when no
          higher level qualifies. *)
  tail : float;
}

val beyond : n:int -> int -> int -> int
(** [beyond ~n num den]: samples strictly above the nearest-rank
    [num/den] quantile of [n] samples. Integer arithmetic, so p99 of 1000
    samples has exactly 10 beyond it. *)

val summarize : ?cap:string -> float array -> t
(** Nearest-rank p50 and tail of the samples (the array is not
    modified). [cap] names the highest level considered (default: every
    level), so runs of different lengths can report the same percentile.
    @raise Invalid_argument on an empty array. *)
