(** Routing solutions.

    A solution assigns every communication one or more weighted Manhattan
    paths. Single-path rules (XY, 1-MP heuristics) use exactly one path per
    communication; [s]-MP rules split a communication into at most [s] parts
    that share its endpoints. Under a fault scenario a communication whose
    every Manhattan path is cut may instead ride a non-Manhattan detour
    walk; {!detour_hops} totals the extra hops paid. *)

type route = private {
  comm : Traffic.Communication.t;
  paths : (Noc.Path.t * float) list;
      (** Each path carries the given rate share; every path joins
          [comm.src] to [comm.snk]. *)
  detours : (Noc.Walk.t * float) list;
      (** Non-Manhattan fallback routes (normally empty); together with
          [paths] the shares sum to [comm.rate]. *)
}

type t = private { mesh : Noc.Mesh.t; routes : route list }

val route_single : Traffic.Communication.t -> Noc.Path.t -> route
(** @raise Invalid_argument if the path endpoints differ from the
    communication's. *)

val route_detour : Traffic.Communication.t -> Noc.Walk.t -> route
(** The whole rate on one (possibly non-Manhattan) walk.
    @raise Invalid_argument on an endpoint mismatch. *)

val route_multi :
  Traffic.Communication.t -> (Noc.Path.t * float) list -> route
(** @raise Invalid_argument on empty lists, endpoint mismatches,
    non-positive shares, or shares not summing to the rate (1e-6 relative
    tolerance). *)

val route_parts :
  Traffic.Communication.t ->
  paths:(Noc.Path.t * float) list ->
  detours:(Noc.Walk.t * float) list ->
  route
(** General multi-part route mixing Manhattan paths and detour walks —
    what merging a fault-repaired split solution produces. Same
    validation as {!route_multi}, over the union of both share lists. *)

val make : Noc.Mesh.t -> route list -> t
(** @raise Invalid_argument if some path leaves the mesh. *)

val mesh : t -> Noc.Mesh.t
val routes : t -> route list

val num_paths : t -> int
(** Total number of (communication, path-or-detour) pairs. *)

val max_paths_per_comm : t -> int
(** The [s] for which this is an s-MP solution (1 for single-path). *)

val detour_hops : t -> int
(** Total extra hops of all detour walks over the Manhattan distance;
    0 for a pure-Manhattan solution. *)

val loads : ?fault:Noc.Fault.t -> t -> Noc.Load.t
(** Link loads induced by the solution. The fault scenario, when given, is
    carried by the returned {!Noc.Load.t} so evaluation sees the degraded
    capacities. *)

val iter_route_links : route -> (Noc.Mesh.link -> unit) -> unit
(** Apply the function to every directed link of every part of the route
    (paths first, then detour walks; a link used by several parts is
    visited once per part). *)

val route_crosses : Noc.Mesh.t -> bool array -> route -> bool
(** [route_crosses mesh mask r]: some link of the route has its
    {!Noc.Mesh.link_id} set in [mask]. *)

val path_of : t -> Traffic.Communication.t -> Noc.Path.t option
(** The unique path of a communication in a single-path solution; [None] if
    the communication is absent, split, or detoured. *)

val pp : Format.formatter -> t -> unit
