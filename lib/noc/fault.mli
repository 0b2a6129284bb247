(** Fault scenarios on the mesh interconnect.

    A scenario assigns every directed link a capacity factor in [[0, 1]]:
    [1.] is a healthy link, [0.] a dead one, and anything in between a link
    degraded to that fraction of the nominal bandwidth [BW]. Faults are
    physical, so every builder kills or degrades {e both} directions of an
    edge at once (dead routers kill all incident edges).

    The module lives in [Noc] and therefore cannot depend on [Traffic.Rng];
    random generators take a [choose] callback exactly like {!Path.random},
    so [Traffic.Rng.int rng] plugs in directly. *)

type t

val healthy : Mesh.t -> t
(** Every link at factor [1.]. *)

val mesh : t -> Mesh.t

val factor : t -> int -> float
(** Capacity factor of a directed link by {!Mesh.link_id}. *)

val factor_link : t -> Mesh.link -> float

val usable : t -> Mesh.link -> bool
(** [factor > 0.]: degraded links remain usable, dead ones do not. *)

val usable_id : t -> int -> bool

val is_trivial : t -> bool
(** No link is dead or degraded; routing may skip fault handling. *)

(** {1 Builders} — all functional, returning an updated scenario. *)

val kill_link : t -> Mesh.link -> t
(** Set both directions of the edge to factor [0.]. *)

val degrade_link : t -> Mesh.link -> float -> t
(** Set both directions of the edge to the given factor.
    @raise Invalid_argument if the factor is NaN or outside [[0, 1]]. *)

val kill_router : t -> Coord.t -> t
(** Kill every edge incident to the core.
    @raise Invalid_argument if the core is not in the mesh. *)

val kill_region : t -> a:Coord.t -> b:Coord.t -> t
(** Kill every router in the axis-aligned rectangle spanned by the two
    corners (a regional outage). *)

(** {1 Inspection} *)

val dead_links : t -> Mesh.link list
(** Directed links at factor [0.], in {!Mesh.link_id} order. *)

val degraded_links : t -> (Mesh.link * float) list
(** Directed links with factor strictly between 0 and 1. *)

val num_dead : t -> int
(** Number of dead {e undirected} edges. *)

val path_usable : t -> Path.t -> bool
(** No link of the path is dead. *)

val walk_usable : t -> Walk.t -> bool

val connected : t -> bool
(** The surviving undirected graph spans every core. *)

(** {1 Random scenarios} *)

val random_dead : choose:(int -> int) -> kills:int -> Mesh.t -> t
(** [random_dead ~choose ~kills mesh] kills [kills] uniformly random edges.
    Each kill is resampled so the surviving graph stays connected — every
    core pair keeps some route, and the sweep isolates capacity loss from
    outright disconnection. If no further edge can be removed without
    disconnecting the mesh, fewer than [kills] edges die. [choose n] must return a uniform integer in
    [0 .. n-1]. *)

val random_degraded : choose:(int -> int) -> n:int -> Mesh.t -> t
(** Degrade [n] distinct random edges, each to a factor drawn from
    [[|0.25; 0.5; 0.75|]]. *)

val pp : Format.formatter -> t -> unit

type fault = t
(** Alias so {!Schedule} can name the outer scenario type. *)

(** {1 Fault-event schedules}

    A schedule is a replayable timeline of topology events — the input to
    the run-time recovery engine ([Optim.Recover]). Generation uses the
    same [choose]-callback style as {!random_dead}, so a schedule drawn
    from a seeded [Traffic.Rng] is reproducible and jobs-invariant, and
    sequential generation makes an [n+1]-event schedule extend the
    [n]-event one drawn from the same chooser (prefix nesting). *)
module Schedule : sig
  type event =
    | Kill_link of Mesh.link  (** Both directions of the edge die. *)
    | Degrade_link of Mesh.link * float
        (** Both directions drop to the given capacity factor. *)
    | Kill_router of Coord.t  (** Every incident edge dies. *)
    | Kill_region of { a : Coord.t; b : Coord.t }
        (** Regional outage: every router in the rectangle dies. *)
    | Restore of Mesh.link
        (** Both directions of the edge return to factor [1.]. *)

  type t

  val make : Mesh.t -> event list -> t
  val mesh : t -> Mesh.t
  val events : t -> event list
  val length : t -> int

  val apply : fault -> event -> fault
  (** Fold one event into a scenario.
      @raise Invalid_argument on an event naming an out-of-mesh core. *)

  val final : ?init:fault -> t -> fault
  (** Scenario after every event, starting from [init] (default
      {!healthy}). *)

  val play : ?init:fault -> t -> fault list
  (** Scenario after each successive event ([length t] elements). *)

  val touched : Mesh.t -> event -> int list
  (** Ids of the directed links whose capacity the event may change (both
      directions; links between two routers of a region come twice).
      @raise Invalid_argument on a link or a router off the mesh, as
      {!apply} does. *)

  val random :
    ?init:fault ->
    choose:(int -> int) ->
    events:int ->
    Mesh.t ->
    t
  (** Draw an [events]-long schedule. Each event is, with fixed weights,
      a kill of a random alive edge (9/20), a degradation of one to a
      factor drawn as in {!random_degraded} (5/20), a router kill (1/20),
      a small regional outage (1/20), or a restore of a random broken
      edge (4/20, falling back to a kill when nothing is broken).
      Generation tracks the evolving scenario starting from [init]
      (default {!healthy}), so targets always exist; when every edge is
      dead a restore is forced.
      @raise Invalid_argument if [events] is negative. *)

  val pp_event : Format.formatter -> event -> unit
end
