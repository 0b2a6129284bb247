(** Monte-Carlo execution of a figure specification.

    For each x value, [trials] independent communication sets are drawn and
    every heuristic (plus the virtual BEST) is scored the way the paper
    plots it: the mean of the heuristic's inverse power normalized by the
    inverse power of BEST (0 on failure), and the failure ratio.

    The campaign is crash-safe in both directions: a trial that raises —
    a heuristic bug, a disconnected fault scenario, anything — is recorded
    as a structured error in its cells instead of aborting the sweep, and
    an optional sidecar checkpoint lets a killed campaign resume exactly
    where it stopped with bit-identical rows. *)

type stats = {
  failure_ratio : float;
      (** Fraction of trials without a feasible solution for this cell —
          infeasible and errored trials both count. *)
  error_ratio : float;
      (** Fraction of trials where this cell's heuristic raised (or the
          whole trial failed before routing). Always [<= failure_ratio]. *)
  norm_inv_power : float;
      (** Mean over trials of [P_BEST / P_h] (0 when [h] fails); equals 1
          minus failure ratio for BEST itself. *)
  norm_stderr : float;
      (** Standard error of that mean (Monte-Carlo noise estimate). *)
  mean_power : float option;
      (** Mean power over the successful trials, when any. *)
  mean_detour_hops : float;
      (** Mean non-Manhattan detour hops per successful trial (0 on a
          healthy mesh). *)
  error_example : string option;
      (** The first error message observed, when [error_ratio > 0]. *)
  counters : Routing.Metrics.counters;
      (** {!Routing.Metrics} work totals over the cell's trials —
          per-heuristic work for heuristic cells, the whole trial
          (generation, every heuristic, repair, evaluation) for BEST.
          Deterministic and jobs-invariant like the statistics: a trial's
          work is a function of its rng key, measured as a snapshot
          difference on the one domain that ran it. *)
  engine : float option list;
      (** One mean per {!columns} entry, in table order, each over the
          column's own population of feasible trials; [None] when that
          population is empty (every column on a figure that neither
          simulates nor serves). *)
}

type row = { x : float; cells : (string * stats) list }
(** One x point; cells are keyed by heuristic name, BEST last. *)

type result = {
  figure : Figure.t;
  trials : int;
  seed : int;
  rows : row list;
}

val now_s : unit -> float
(** CLOCK_MONOTONIC in seconds — the clock every campaign runtime is
    measured with, exposed so CLI front ends time individual operations
    (the serve command's per-event latencies) on the same basis. *)

val default_trials : unit -> int
(** [MANROUTE_TRIALS] from the environment, else 150. A set-but-invalid
    value falls back to 150 with a warning on stderr rather than
    silently. *)

val trial_rng : figure_id:string -> x:float -> seed:int -> trial:int -> Traffic.Rng.t
(** The generator driving trial [trial] of point [x]: derived with
    {!Traffic.Rng.of_key} from the trial's coordinates alone, never from
    another trial's stream. This is what makes sharding over domains
    invisible to the statistics. *)

(** {1 The trial pipeline}

    One step shared by a campaign trial, its audit re-capture and
    [manroute inspect]. *)

type attempt = {
  heuristic : Routing.Heuristic.t;
  outcome : (Routing.Best.outcome, string) Stdlib.result;
      (** The evaluated solution, or the message of whatever the
          heuristic (or its evaluation) raised. *)
  note : Routing.Heuristic.note option;  (** The engine's note. *)
  work : Routing.Metrics.counters;  (** Work done, raising or not. *)
  seconds : float;  (** Monotonic wall-clock time of run + evaluation. *)
}

val attempt :
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Routing.Heuristic.t ->
  attempt
(** Run one heuristic through {!Routing.Heuristic.run_noted} and
    evaluate its solution, inside [heuristic] and [evaluate] spans. Never
    raises: an exception becomes [Error]. *)

(** {1 Keyed columns} *)

type column = {
  name : string;  (** CSV suffix and checkpoint column. *)
  fill :
    sim:(Optim.Pareto.objectives * bool) option ->
    Routing.Heuristic.note option ->
    float option;
      (** The value a feasible attempt contributes, from its Pareto point
          and front membership (when the figure simulates) or from its
          note; [None] keeps the attempt out of the column's
          population. *)
}

val columns : column list
(** The engine columns: simulated [p50]/[p95] (over Pareto-scored trials
    with both quantiles finite), [slope] and [front] (over all
    Pareto-scored trials; [front] is the fraction on the trial's
    non-dominated front), and the {!Optim.Online} session's
    [srv_power]/[srv_saved]/[srv_p95] (over served trials). BEST mirrors
    its winner. Adding an engine column is one entry here. *)

val fields : (string * (stats -> Checkpoint.value)) list
(** Every per-cell CSV column in order — the core statistics, the
    {!Routing.Metrics.fields} counters, then {!columns} — keyed by CSV
    suffix. The checkpoint stores these plus the error example. *)

val append_row : path:string -> Checkpoint.key -> row -> unit
(** Append [row] to the sidecar [path] under [key]: every {!fields}
    column plus the error example, named once per line. *)

val load_rows :
  path:string -> Checkpoint.key -> (float * (string * stats) list) list
(** The rows of sidecar [path] a campaign with this key resumes, in file
    order: a {!Checkpoint.load} with the {!append_row} columns.
    @raise Checkpoint.Mismatch on a key-matching row of another version
    or column set.
    @raise Checkpoint.Corrupt on a key-matching row that fails to parse
    before the final line. *)

val run :
  ?trials:int ->
  ?seed:int ->
  ?model:Power.Model.t ->
  ?heuristics:Routing.Heuristic.t list ->
  ?jobs:int ->
  ?summary:Summary.acc ->
  ?checkpoint:string ->
  ?progress:Telemetry.Progress.t ->
  ?audit:string ->
  Figure.t ->
  result
(** Defaults: {!default_trials} trials, seed 1, the paper's
    {!Power.Model.kim_horowitz} model, all six heuristics, {!Pool.default_jobs}
    worker domains. When [summary] is given, every error-free instance is
    also folded into it, in trial order. For a fixed [seed], [rows] — and
    every [summary] counter except the wall-clock runtimes — are
    bit-identical for every value of [jobs]: trials are seeded
    independently via {!trial_rng} and reduced in trial order.
    Per-heuristic runtimes are monotonic wall-clock seconds measured on
    the worker that ran the trial.

    When the figure has a {!Figure.t.scenario}, each trial's fault is drawn
    from the trial rng right after its workload and passed to every
    heuristic and evaluation. Scenario figures are additionally {e paired}
    across the sweep: their trial rng is keyed as if [x] were [0.], so
    trial [t] draws the same workload at every x and sequential fault
    generators ({!Noc.Fault.random_dead}) produce nested dead sets — the
    damage level is the only thing that varies along the x axis.

    Exceptions never abort the campaign: a raising heuristic yields an
    [Errored] contribution for its own cell only (and excludes the trial
    from [summary]); a failure before routing — workload or scenario
    generation — errors every cell of the trial. Either way the surviving
    trials keep their bit-identical statistics and errors surface in
    {!stats.error_ratio} / {!stats.error_example}.

    [checkpoint] names a sidecar file (its directory must exist): each
    completed row is appended immediately ({!append_row}), and rows
    already present for this exact (figure, seed, trials) key are reused
    instead of recomputed ({!load_rows}, which raises on a sidecar this
    build cannot resume) — bit-identical to a fresh run thanks to
    hex-float round-tripping. Resumed rows are not folded into
    [summary].

    [audit] names a directory: after each computed row, the worst-power
    trial plus every errored and every traffic-shedding trial are
    re-captured deterministically on the calling domain, through the same
    pipeline as the campaign trial, and appended as
    {!Audit} records to [DIR/<figure>-audit.jsonl] (truncated at campaign
    start). Selection reads the trial-ordered result array and the
    re-capture replays {!trial_rng}, so the artifact is byte-identical
    for every value of [jobs]. Checkpoint-resumed rows carry no per-trial
    data and are not re-audited.

    [progress] hooks a live display: each completed trial ticks it from
    the worker that ran it, each completed row bumps its row count, each
    errored trial its error count, and checkpoint-resumed rows credit
    their trials with {!Telemetry.Progress.advance} (kept out of the ETA
    rate). When a {!Telemetry} sink is installed, the whole campaign, each
    computed row, each trial and each heuristic run is additionally
    recorded as a span. Neither affects the statistics. *)

val exit_on_error : (unit -> 'a) -> 'a
(** [exit_on_error f] is [f ()] for a command-line front end, except that
    an output that cannot be written ([Sys_error]: trace, audit,
    checkpoint, CSV, JSON, problem file), a sidecar that cannot resume
    ({!Checkpoint.Corrupt}, {!Checkpoint.Mismatch}) or an instance too
    large to allocate ([Out_of_memory]) ends the process with a one-line
    [error:] message on stderr and exit code 1. *)
