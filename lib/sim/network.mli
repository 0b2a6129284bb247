(** Cycle-level wormhole network simulator.

    Executes a routing {!Routing.Solution.t} on the mesh it was computed
    for: every link is clocked at the frequency the power model assigns to
    its load, packets are source-routed along the prescribed Manhattan
    paths through input-buffered routers with virtual channels, credit
    back-pressure and round-robin switch arbitration. When the escape
    channel is enabled (default), a head flit blocked beyond the configured
    patience finishes its journey dimension-ordered on the reserved VC,
    which makes the network deadlock-free for arbitrary minimal route sets;
    with it disabled, adversarial route sets can deadlock and the detector
    reports it.

    Injectors produce fixed-size packets at each communication's requested
    rate with bounded pending queues, so the delivered rate of a feasible
    routing converges to the requested rate while an overloaded link shows
    up as delivered < requested. *)

type t

(** A cache of the mesh-derived input-link table. A campaign simulates
    many solutions over the same mesh; an arena keeps the table of the
    last mesh shape it saw, so {!create} builds it once per shape. Every
    network gets its own fresh per-link buffers, so any number of
    networks built in one arena stay valid, each bit-identical to one
    built without it. *)
module Arena : sig
  type t

  val create : unit -> t

  val domain : unit -> t
  (** The calling domain's arena (one per domain, so pool workers never
      share buffers). *)
end

(** Observable simulator events (see {!set_observer}). *)
type event =
  | Injected of { cycle : int; comm_id : int; packet : int }
  | Delivered of { cycle : int; comm_id : int; packet : int; latency : int }
  | Escaped of { cycle : int; comm_id : int; packet : int }
      (** The packet abandoned its prescribed route for the XY escape VC. *)
  | Deadlock of { cycle : int }
  | Link_killed of { cycle : int; link : Noc.Mesh.link }
      (** A scheduled mid-simulation fault took the link down. *)

type comm_stats = {
  comm : Traffic.Communication.t;
  packets_injected : int;
  packets_delivered : int;
  flits_delivered : int;
  escaped_packets : int;  (** Packets that finished on the escape VC. *)
  mean_latency : float;  (** Cycles from injection to tail ejection. *)
  latency_p50 : float;  (** Median latency (NaN when nothing delivered). *)
  latency_p95 : float;
  latency_p99 : float;
  requested_rate : float;  (** Mb/s. *)
  delivered_rate : float;
      (** Mb/s equivalent of the delivered flits over the measured run. *)
}

type report = {
  cycles : int;
  comms : comm_stats list;
  flits_moved : int;  (** Total link traversals. *)
  deadlocked : bool;
      (** No flit moved for a whole deadlock window while flits were in
          flight. *)
  max_link_utilization : float;  (** Flits per cycle on the busiest link. *)
  link_utilization : (int * float) array;
      (** Measured flits per cycle for every link id, in id order. *)
  latency_p50 : float;
      (** Median over {e all} measured tail latencies, pooled across
          communications (NaN when nothing was delivered). *)
  latency_p95 : float;
  injected_flits : int;
      (** Whole-run flits that entered the network (warmup included). *)
  ejected_flits : int;
      (** Whole-run flits consumed at their sink. Conservation holds at
          the cutoff: [injected_flits = ejected_flits + in_flight_flits]. *)
  in_flight_flits : int;  (** Flits still buffered when the run stopped. *)
  early_exit : bool;
      (** The convergence detector stopped the run before the full cycle
          budget (see {!run}'s [tolerance]). *)
}

val create :
  ?config:Config.t -> ?arena:Arena.t -> Power.Model.t -> Routing.Solution.t -> t
(** Builds the network, assigns link frequencies from the solution's loads
    and installs one injector per communication. Detour walks of the
    solution are source-routed exactly like Manhattan paths: every flit
    follows its route hop by hop, so a walk that revisits a core, and so
    crosses a link twice, is followed in order. With [arena],
    the input-link table is taken from (or stored in) the arena; results
    are bit-identical either way.
    @raise Invalid_argument on an inconsistent configuration. *)

val set_observer : t -> (event -> unit) -> unit
(** Install a callback invoked synchronously on every packet injection,
    delivery, escape, scheduled link kill, and on deadlock detection. At
    most one observer. *)

val schedule_link_kill : t -> cycle:int -> Noc.Mesh.link -> unit
(** Take the (directed) link down at the given absolute simulation cycle —
    cycles count from the start of {!run}, warmup included. A dead link
    stops earning credit, so flits routed over it stall at its source
    router until the escape VC reroutes them (or, with escapes disabled,
    until the deadlock detector fires). Call before {!run}.
    @raise Invalid_argument on a link outside the mesh, a negative cycle,
    or a network that has already run (the kill would never apply). *)

val run : ?warmup:int -> ?tolerance:float -> t -> cycles:int -> report
(** Advances the simulation: [warmup] unmeasured cycles (default
    [cycles/5] — 0 when [cycles < 5]) followed by up to [cycles] measured
    ones. Can be called once per network.

    With [tolerance], a warmup-convergence detector may stop the measured
    window early: every [max 128 (cycles/16)] measured cycles the
    per-communication delivered rates and latency quantiles are probed,
    and once every communication has reached [(1 - tolerance)] of its
    requested rate {e and} its rate, p50 and p95 all moved by at most the
    relative tolerance since the previous probe, the run stops with
    [early_exit = true] and statistics over the cycles actually measured.
    A communication starved by an overloaded link never reaches its
    requested rate, so an overloaded network always runs the full budget.
    @raise Invalid_argument when [cycles <= 0] (a non-positive budget used
    to silently produce a bogus one-cycle report), when [warmup < 0], when
    [warmup + cycles] exceeds [max_int] (it used to wrap and simulate
    nothing), or when [tolerance] is not a positive finite number. *)

val pp_report : Format.formatter -> report -> unit
