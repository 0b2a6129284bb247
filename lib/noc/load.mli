(** Mutable link-load accounting.

    Tracks, for every directed link of a mesh, the total bandwidth (in the
    caller's rate unit, Mb/s throughout this project) of the communications
    currently routed through it. This is the inner-loop data structure of
    every routing heuristic: adding and removing a path is [O(path length)]
    and reading a link is [O(1)]. *)

type t

val create : ?fault:Fault.t -> Mesh.t -> t
(** All loads start at zero. The optional fault scenario travels with the
    accounting so that consumers ({!Routing.Evaluate}, heuristic cost
    functions) see the degraded capacities without extra plumbing. *)

val mesh : t -> Mesh.t

val fault : t -> Fault.t option

val copy : t -> t

val get : t -> int -> float
(** Load of the link with the given {!Mesh.link_id}. *)

val get_link : t -> Mesh.link -> float

val factor : t -> int -> float
(** Capacity factor of the link under the carried fault ([1.] without one). *)

val factor_link : t -> Mesh.link -> float

val usable : t -> int -> bool
(** The link is not dead under the carried fault (always true without one). *)

val usable_link : t -> Mesh.link -> bool

val get_effective : t -> int -> float
(** Load rescaled to the healthy capacity scale: a link at factor [phi]
    carrying [x] behaves like a healthy link carrying [x / phi]. A dead link
    with positive load reads as [infinity]; without a fault this is {!get}
    exactly. *)

val get_effective_link : t -> Mesh.link -> float

val add : t -> int -> float -> unit
(** [add t id delta] adds [delta] (possibly negative) to a link load.
    Tiny results from float cancellation are snapped to [0.]: absolutely
    (below [1e-9]) and, for removals, relatively to the operand magnitudes
    — so removing everything a long add/remove stream routed over a link
    restores the idle class ([0.] bit-exactly) instead of leaving a
    negative or denormal residue. *)

val set : t -> int -> float -> unit
(** [set t id x] overwrites a link load with [x], no clamping. Meant for
    restoring a value previously read with {!get} — the delta engine's
    journal rollback, which must reproduce the pre-speculation state
    bit-exactly ([old -. d +. d] would not). *)

val add_link : t -> Mesh.link -> float -> unit

val add_path : t -> Path.t -> float -> unit
(** Routes [rate] units along every link of the path. *)

val remove_path : t -> Path.t -> float -> unit
(** Inverse of {!add_path}. *)

val add_walk : t -> Walk.t -> float -> unit
(** Routes [rate] units along every link of a (possibly non-Manhattan)
    walk. *)

val max_load : t -> float

val total : t -> float
(** Sum of all link loads (each communication counted once per hop). *)

val active_links : t -> int
(** Number of links with a strictly positive load. *)

val overloaded : t -> capacity:float -> (int * float) list
(** Links whose load strictly exceeds [capacity], with their loads,
    by decreasing load. *)

val overload : t -> capacity:float -> int -> float
(** Per-link overload factor under the fault-effective capacity: how far
    the link's {!get_effective} load exceeds [capacity], as a fraction of
    [capacity] — [0.] when the link fits (up to the same epsilon as
    {!overloaded}), [infinity] on a dead link carrying traffic. The
    present-congestion term of negotiated-congestion routing. *)

val effective_capacity : t -> capacity:float -> int -> float
(** Bandwidth the link can actually carry under the carried fault:
    [factor *. capacity]. [capacity] itself on a healthy link, [0.] on a
    dead one — the per-link ceiling that {!get_effective} is measured
    against (after rescaling to the healthy scale). *)

val overloaded_effective : t -> capacity:float -> (int * float) list
(** Links whose {e effective} load ({!get_effective}) strictly exceeds
    [capacity], with those effective loads, by decreasing load (ties by
    increasing id). Equals {!overloaded} when the accounting carries no
    fault. *)

val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every link id with its load, in id order. *)

val iter : (int -> float -> unit) -> t -> unit

val hottest : t -> (int -> bool) -> int option
(** [hottest t p] is the link id of greatest {e effective} load
    ({!get_effective}, compared with [Float.compare]; ties to the lower
    id) among those satisfying [p], or [None] when none does — the
    raw-load order when the accounting carries no fault. One O(links)
    scan; [p] is called on some ids only, in no promised order, so it
    must be pure. *)
