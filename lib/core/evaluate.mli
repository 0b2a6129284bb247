(** Power and feasibility evaluation of routing solutions.

    A solution is {e valid} when no link load exceeds the model's capacity;
    its power is the sum over active links of leakage plus dynamic power at
    the required (possibly quantized) frequency. Under a fault scenario
    (carried by the {!Noc.Load.t}), a degraded link's capacity — and its
    usable frequency levels — shrink by its factor, so the same loads may be
    infeasible on a faulty mesh. *)

type report = {
  feasible : bool;
  total_power : float;
      (** [static +. dynamic] when feasible; [infinity] otherwise. *)
  static_power : float;  (** [P_leak * active_links] (feasible case). *)
  dynamic_power : float;
  active_links : int;  (** Links with a strictly positive load. *)
  max_load : float;
      (** Highest {e effective} load ({!Noc.Load.get_effective}): degraded
          links are rescaled to the healthy capacity scale, so the value is
          comparable to [capacity] whatever the fault — a raw load would
          under-report how full a degraded link is. Equals the raw maximum
          when the loads carry no fault. *)
  overloaded : (Noc.Mesh.link * float) list;
      (** Capacity violations with their {e effective} loads (a dead link
          carrying traffic reads [infinity]), by decreasing load; empty iff
          feasible. *)
  detour_hops : int;
      (** Extra hops of non-Manhattan detour routes ({!Solution.detour_hops});
          0 when evaluating raw loads. *)
}

val of_loads : Power.Model.t -> Noc.Load.t -> report
(** Evaluate a load vector directly, against the fault scenario the loads
    carry (if any). [detour_hops] is 0: loads alone cannot tell a detour. *)

(** {1 Evaluation internals shared with {!Delta}}

    The totals are computed in a canonical, order-independent form: in
    discrete mode the static and dynamic sums group links by frequency
    level and total each group by repeated addition
    ({!Power.Model.sum_repeat}), so a report is a pure function of the
    {!tally} — per-level counts, active count, max effective load,
    overload set. That is what lets the incremental engine, which
    maintains a tally under path add/remove/swap, emit reports
    bit-identical to a from-scratch {!of_loads}. Continuous mode keeps a
    link-id-order dynamic sum in [t_cont_dynamic]. *)

type tally = {
  t_active : int;
  t_max_load : float;  (** Max effective load over active links. *)
  t_level_count : int array;
      (** Feasible active links per discrete level ([[|0|]] when
          continuous). *)
  t_cont_dynamic : float;  (** Continuous-mode dynamic sum, link-id order. *)
  t_over_rev : (int * float) list;
      (** Overloaded [(link id, effective load)], decreasing id. *)
}

val tally_of_loads : Power.Model.table -> Noc.Load.t -> tally
(** One classification scan over the load vector. Does not bump
    [feasibility_checks]. *)

type totals_cache
(** Prefix-sum caches ({!Power.Model.sums}) for the static and per-level
    dynamic totals — lets a caller that assembles many reports from
    nearby tallies (the delta engine) pay O(levels) instead of O(active
    links) per report. Cached totals are bit-identical to the direct
    repeated additions. Mutable, single-owner. *)

val totals_cache : Power.Model.table -> totals_cache

val report_of_tally :
  ?cache:totals_cache -> Power.Model.table -> Noc.Mesh.t -> tally -> report
(** Assemble the report; pure (the cache only memoizes). [of_loads] is
    [report_of_tally] of [tally_of_loads] plus the counter bump. *)

val solution : ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t -> report

val power : ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t -> float option
(** Total power when the solution is feasible. *)

val power_exn : ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t -> float
(** @raise Invalid_argument on an infeasible solution. *)

val power_per_rate :
  ?fault:Noc.Fault.t -> Power.Model.t -> Solution.t -> float option
(** Total power divided by the total requested bandwidth (mW per Mb/s) — an
    energy-per-bit figure of merit; [None] on infeasible or empty
    solutions. *)

val overload_mask : Noc.Mesh.t -> report -> bool array
(** Per {!Noc.Mesh.link_id}, whether the report convicts the link (lists
    it in [overloaded]). *)

val penalized : Power.Model.t -> Noc.Load.t -> float
(** Total {!Power.Model.penalized_cost_capped} over all links (factors from
    the fault carried by the loads) — the surrogate objective used by repair
    heuristics; equals the total power on feasible load vectors. *)

val pp_report : Format.formatter -> report -> unit
