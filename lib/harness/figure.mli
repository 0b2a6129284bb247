(** Specifications of the paper's simulation figures.

    Each figure of Section 6 sweeps one parameter on the x-axis and draws a
    fresh random communication set per trial; this module encodes the nine
    sub-figures (7a-c, 8a-c, 9a-c) on the paper's 8x8 CMP, plus a fault
    sweep ({!figf}) that goes beyond the paper. *)

type sim_spec = {
  sim_cycles : int;  (** Measured-cycle budget per {!Sim.Network.run}. *)
  sim_tolerance : float option;
      (** Early-exit tolerance; [None] runs the full budget. *)
  sim_kills : int;
      (** Link kills for the fault-degradation slope axis; [0] pins the
          slope objective to 0. *)
}

type t = {
  id : string;  (** e.g. ["fig7a"]. *)
  title : string;
  xlabel : string;
  xs : float list;  (** Swept x values. *)
  generate : Traffic.Rng.t -> float -> Traffic.Communication.t list;
      (** Workload generator for a given x. *)
  scenario : (Traffic.Rng.t -> float -> Noc.Fault.t) option;
      (** Fault scenario for a given x, drawn from the same per-trial rng
          {e after} the workload — so the communications of a trial do not
          depend on the damage. [None] means a healthy mesh. *)
  paired : bool;
      (** Paired sweeps key the trial rng as if [x] were 0, so trial [t]
          draws the same workload at every x — the swept parameter (fault
          damage for {!figf}, the path budget for {!figs}) is the only
          thing varying along the axis, and the columns are monotone by
          construction instead of up to Monte-Carlo noise. *)
  heuristics : (float -> Routing.Heuristic.t list) option;
      (** Per-x heuristic set, overriding the runner's default — for
          sweeps whose x parameterizes a heuristic ({!figs}). Must yield
          the same cell names at every x (the CSV has one column family
          per name). *)
  sim : (float -> sim_spec) option;
      (** Per-x simulation budget. [Some] switches the runner into Pareto
          mode: every feasible cell is additionally scored on simulated
          p50/p95 packet latency and the fault-degradation slope, per-trial
          non-dominated fronts are computed ({!Optim.Pareto}), and the
          [_p50], [_p95], [_slope] and [_front] CSV columns fill in. [None]
          keeps the classic power-only campaign. *)
}

val mesh : Noc.Mesh.t
(** The paper's 8x8 CMP. *)

val fig7a : t
(** Sensitivity to the number of communications, small weights
    U\[100, 1500\] Mb/s. *)

val fig7b : t
(** Same with mixed weights U\[100, 2500\]. *)

val fig7c : t
(** Same with big weights U\[2500, 3500\]. *)

val fig8a : t
(** Sensitivity to the average weight with 10 communications. *)

val fig8b : t
(** Same with 20 communications. *)

val fig8c : t
(** Same with 40 communications. *)

val fig9a : t
(** Sensitivity to the average length: 100 small communications
    U\[200, 800\]. *)

val fig9b : t
(** Same: 25 mixed communications U\[100, 3500\]. *)

val fig9c : t
(** Same: 12 big communications U\[2700, 3300\]. *)

val figf : t
(** Fault sweep: 40 mixed communications on the 8x8 CMP while the x axis
    kills 0..12 random links (connectivity-preserving,
    {!Noc.Fault.random_dead}). Plots how the failure ratio and the power
    overhead of detours grow with the damage. *)

val figs : t
(** Split sweep: 25 mixed communications on the 8x8 CMP while the x axis
    raises the flow-guided s-MP engine's path budget s through 1, 2, 4, 8
    ({!Optim.Smp}, cell name [SMP]) next to the six single-path cells.
    Paired: the same workloads at every s, so the SMP power column
    descends toward the fractional lower bound and its failure ratio
    drops on instances no single path can carry. *)

val figpf : t
(** Negotiation sweep: 25 mixed communications on the 8x8 CMP while the
    x axis raises the PathFinder iteration cap through 1, 2, 4, 8, 16
    ({!Optim.Pathfinder}, cell name [PF]) next to the six single-path
    cells. Paired: the same workloads at every cap, so the PF column
    can only improve along x, and the [*_pf_rips] CSV column shows the
    negotiation effort each cap bought. *)

val figrec : t
(** Recovery sweep: 25 mixed communications on the 8x8 CMP while the x
    axis raises the fault-event count through 0, 2, 4, 8, 12, 16
    ({!Optim.Recover}, cell name [REC]) next to the six single-path
    cells. Paired: the same workloads at every x, and the REC engine
    derives its fault schedule from the workload itself, so the x-event
    schedule is a prefix of the (x+k)-event one — only the damage
    history grows along the row. The [*_recover_events] /
    [*_recover_sheds] / [*_recover_rung_max] CSV columns expose the
    escalation ladder's work. *)

val figserve : t
(** Serve sweep: 20 mixed communications on the 8x8 CMP, routed {e as a
    stream} while the x axis raises the arrival rate through 2, 4, 8, 16
    ({!Optim.Online}; cell [SRV] with idle-link switch-off, [SRV0] with
    it disabled) next to the six single-path cells. Paired: the same
    workloads at every rate, and the SRV engines derive their traces
    from the workload itself, so only the stream tempo moves along x.
    The [*_srv_power] / [*_srv_saved] / [*_srv_p95] CSV columns carry
    power-over-time, the switch-off saving ratio and the p95 per-event
    work proxy. *)

val figpareto : t
(** Pareto sweep: 12 mixed communications on the 8x8 CMP while the x
    axis raises the simulator's measured-cycle budget through 500, 1000,
    2000 (cells: the six single-path heuristics plus [SMP] at s = 2).
    Every feasible cell is scored on model power, simulated p50/p95
    latency and the 2-kill fault-degradation slope; each trial emits its
    non-dominated front and {!Summary} merges them into a campaign
    front. Paired: the same workloads (and the same slope fault) at
    every budget, so only measurement fidelity moves along x. *)

val paper : t list
(** The nine paper figures in paper order: the instances the paper's
    Section 6.4 statistics pool. *)

val all : t list
(** {!paper}, then {!figf}, {!figs}, {!figpf}, {!figrec}, {!figserve} and
    {!figpareto}. *)

val find : string -> t option
(** Lookup by [id] (case-insensitive). *)
