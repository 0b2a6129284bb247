(** Simulator parameters.

    The paper's evaluation is analytic; this simulator is the executable
    substrate the paper presumes (table-based source routing, scalable link
    frequencies, a deadlock-avoidance mechanism) and is used to validate
    routings end to end: a feasible routing must deliver its requested
    bandwidths, an infeasible one must visibly saturate. *)

type t = {
  router_latency : int;
      (** Pipeline delay in cycles before a buffered flit becomes eligible
          to traverse the next link (models the RC/VA/SA/ST stages of a
          real router; 1 = single-cycle routers). *)
  packet_flits : int;  (** Flits per packet (all packets equal size). *)
  buffer_flits : int;  (** Input-buffer depth per virtual channel, flits. *)
  num_vcs : int;
      (** Virtual channels per physical link. With [escape_vc] the last one
          is reserved for the XY escape path (Duato-style), so at least 2
          are required in that case. *)
  escape_vc : bool;
      (** Reserve the last VC as a dimension-ordered escape channel: a head
          flit blocked for [escape_patience] cycles abandons its prescribed
          route and finishes via XY on the escape VC. Guarantees deadlock
          freedom for arbitrary (even adversarial) Manhattan route sets. *)
  escape_patience : int;
  max_pending_packets : int;
      (** Injection back-pressure: an injector stops producing when this
          many of its packets wait at the source. Delivered throughput
          below the requested rate then signals saturation. *)
  idle_links_min_level : bool;
      (** Clock load-free links at the lowest frequency level instead of
          turning them off, so escape detours never hit a dead link. *)
  deadlock_window : int;
      (** Cycles without any flit movement (while flits are in flight)
          after which the run is declared deadlocked. *)
}

val default : t
(** Single-cycle routers, 8-flit packets, 8-flit buffers, 4 VCs, escape
    enabled with patience 64,
    4 pending packets, idle links at the lowest level, 10_000-cycle
    deadlock window. *)

val validate : t -> unit
(** @raise Invalid_argument on inconsistent parameters, and on capacities
    no array can hold: [num_vcs * buffer_flits] or [max_pending_packets]
    beyond [Sys.max_array_length]. *)
