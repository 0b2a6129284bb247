(** Spatial decomposition of a routing solution: who loads each link,
    where the power goes, and which communications convict an overloaded
    link.

    The paper's objective is a sum of convex per-link power terms, so a
    {!Evaluate.report} is fully explained by a per-link grid — occupancy,
    fault-effective capacity, frequency class, link power — plus an
    attribution of each link's power to the communications that occupy
    it. This module computes both {e exactly}:

    - {b Grid exactness.} {!report} is {!Evaluate.report_of_tally} of
      {!Evaluate.tally_of_loads}, bit-identical, field by field, to a
      from-scratch [Evaluate.of_loads] of the same loads, and each grid
      cell classifies its link with the very tests that tally applies.
    - {b Attribution exactness.} Within a link, a communication's slice
      is its occupancy fraction times the link power; the trailing
      occupants (in route order) absorb a few-ulp correction — the last
      carries the exact remainder, and when rounding ties make the total
      unreachable from the prefix the second-to-last is nudged an ulp to
      shift it — so the slices of every link sum bitwise, in order, to
      that link's power. The same scheme one level up makes the
      per-communication totals sum bitwise to the report's total power
      (static [+.] dynamic when infeasible, where overloaded links'
      infinite power is excluded and attributed as [0.]); each row's
      absorbed correction is surfaced as its {!comm_row.residual}.

    Everything here is a pure function of the solution, so probes are
    deterministic and jobs-invariant — audit artifacts built from them
    are byte-identical at any [--jobs]. *)

type occupant = {
  comm : Traffic.Communication.t;
  share : float;  (** Bandwidth this communication routes through the link. *)
  fraction : float;  (** [share /. occupancy] of the link. *)
  power : float;
      (** Attributed slice of the link's power ([0.] on an overloaded
          link, whose power is infinite). *)
}

type link_probe = {
  link_id : int;
  link : Noc.Mesh.link;
  occupancy : float;  (** Raw load (Mb/s). *)
  factor : float;  (** Capacity factor under the fault ([1.] healthy). *)
  effective_capacity : float;  (** {!Noc.Load.effective_capacity}. *)
  effective_load : float;  (** {!Noc.Load.get_effective}. *)
  level : int;
      (** Frequency class: {!Power.Model.idle_class},
          {!Power.Model.overloaded_class}, or the discrete level index
          ([0] in continuous mode). *)
  link_power : float;
      (** [p_leak +. dynamic] for a carrying link, [0.] idle, [infinity]
          overloaded. *)
  overloaded : bool;
  occupants : occupant list;
      (** Communications through this link, in route order; their [power]
          slices sum bitwise to [link_power] on carrying links. *)
}

type comm_row = {
  comm : Traffic.Communication.t;
  links : (int * occupant) list;
      (** This communication's slice on every link it occupies, by
          increasing link id. *)
  attributed : float;
      (** Total power attributed to this communication. The trailing
          communications carry the few-ulp correction that makes the
          rows sum bitwise, in order, to the report total. *)
  residual : float;
      (** [attributed] minus the plain sum of this row's link slices —
          non-zero (a few ulps) only on the trailing communications. *)
  convicted : int list;
      (** Overloaded link ids this communication occupies, increasing. *)
}

type t = {
  model : Power.Model.t;
  mesh : Noc.Mesh.t;
  report : Evaluate.report;  (** Bit-identical to [Evaluate.of_loads]. *)
  grid : link_probe array;  (** Indexed by link id. *)
  comms : comm_row list;  (** In solution route order. *)
  blame : (link_probe * occupant list) list;
      (** Overloaded links with their convicting occupants, in the
          report's order (decreasing effective load). *)
  attributed_total : float;
      (** Sum of [comms]' [attributed]; bitwise equal to
          [report.total_power] when feasible, to
          [report.static_power +. report.dynamic_power] otherwise
          (and [0.] on an empty solution). *)
}

val of_loads : Power.Model.t -> Noc.Load.t -> t
(** Grid-only probe of a bare load vector: occupants, [comms] and
    [blame] conviction lists are empty ([blame] still lists the
    overloaded links). Does not bump [feasibility_checks]. *)

val solution : ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t -> t
(** Full probe: grid, per-link occupants and per-communication
    attribution of [Solution.loads ?fault s]. [report.detour_hops] is
    the solution's. *)

val exact_remainder : total:float -> partial:float -> float
(** [exact_remainder ~total ~partial] is the float [d] closest to
    [total -. partial] with [partial +. d = total] bitwise ([total],
    [partial] finite, non-negative). [d -> partial +. d] is a monotone
    step function, so a few ulp nudges find [d] whenever one exists; the
    one exception is a [partial] sitting exactly on a rounding tie at
    [total]'s scale, where round-to-even skips an odd-mantissa [total]
    — the attribution fit handles that case by perturbing [partial]
    itself (via the preceding slice) and retrying. Exposed for tests
    and for callers splitting their own quantities. *)

val pp : Format.formatter -> t -> unit
(** Compact textual summary: report line, hottest links, blame sets. *)
