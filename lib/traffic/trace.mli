(** Streaming arrival/departure traces for the online routing service.

    A trace is a finite, time-ordered list of communication {e arrivals}
    and {e departures} — the workload of a long-running router that
    admits requests as they come and releases their links when they
    leave. Every generator here is a pure function of its {!Rng.t}
    stream: equal seeds yield byte-identical traces (see {!to_string}),
    independent of worker-domain count, which is what lets campaign rows
    built on served traces stay bit-identical at any [--jobs].

    Lifetimes are bounded (uniform in [0.5×, 1.5×] the unit mean
    holding time), so a generated churn stream fully drains: every
    arrival has a matching departure and the live set returns to empty.
    Sweeping the arrival [rate] therefore sweeps the steady-state
    concurrency (Little's law: ~[rate] live communications). *)

type kind =
  | Arrive of Communication.t
  | Depart of int  (** [id] of a previously-arrived communication. *)

type event = { time : float; kind : kind }

(** Arrival-process shapes, after the trace-replay workloads of the
    ROADMAP's online-service item. *)
type profile =
  | Poisson  (** Memoryless arrivals at constant [rate]. *)
  | Diurnal
      (** Sinusoidally modulated rate (4 cycles over the trace) — the
          day/night load curve. *)
  | Burst
      (** Poisson background with 8×-rate bursts of 2–7 arrivals. *)
  | Hotspot
      (** Poisson arrivals, half of them sinking at the mesh center. *)

val profiles : (string * profile) list
(** CLI spellings, lowercase. *)

val profile_name : profile -> string
val profile_of_string : string -> profile option
val pp_profile : Format.formatter -> profile -> unit

val generate :
  ?id_base:int ->
  Rng.t ->
  Noc.Mesh.t ->
  profile:profile ->
  arrivals:int ->
  rate:float ->
  weight:Workload.weight ->
  event list
(** A churn stream of [arrivals] communications (ids
    [id_base .. id_base+arrivals-1], default base 0) with endpoints and
    weights drawn like {!Workload.uniform}, arrival times from the
    profile's process at mean [rate] per unit time, and a bounded
    lifetime each — [2×arrivals] events in total, every arrival
    eventually departing.
    @raise Invalid_argument if [arrivals < 0] or [rate <= 0.], or if
    [arrivals > 0] on a mesh with fewer than two cores. *)

val persistent : Rng.t -> rate:float -> Communication.t list -> event list
(** Poisson arrivals (no departures) of the given communications, in
    list order — the resident workload an online engine routes while
    churn flows around it.
    @raise Invalid_argument if [rate <= 0.]. *)

val merge : event list -> event list -> event list
(** Interleave two streams under the global event order (time, then
    communication id, arrivals before departures). Ids must be unique
    across both streams — use [generate]'s [id_base] to offset. *)

val to_string : event list -> string
(** One line per event with hex-float times and rates — lossless, for
    byte-equality determinism tests. *)
