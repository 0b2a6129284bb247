(* The manroute benchmark: three workloads driven through the library's
   public entry points, timed end to end with tracing off and, with
   --trace 1, profiled per layer from a Telemetry span trace.

     main.exe --workload campaign|serve|pareto --seed N --seconds S
              --trace 0|1 [--out DIR] [--setup-only]

   A run repeats rounds until its time is up. Round k draws fresh inputs
   keyed by (seed, k), so a run averages many instances and the figures
   describe the code rather than one draw. The last stdout line is one
   JSON object: correct, attempted, failed and the metrics (end-to-end
   with --trace 0, per-layer with --trace 1). Exits 1 when an output
   check fails. See METRICS.md. *)

open Perfkit

let model = Power.Model.kim_horowitz
let mesh = Harness.Figure.mesh
let now = Harness.Runner.now_s
let span = Harness.Telemetry.span

(* ------------------------------------------------------------------ *)
(* Workload sizes *)

let campaign_trials = 32 (* per x; fig7b has 8 x values *)
let campaign_jobs = 2
let serve_sessions = 20 (* per round *)
let serve_resident = 20
let serve_churn = 200 (* arrivals per session *)
let serve_rate = Optim.Online.default_rate
let pareto_trials = 16 (* per round *)
let pareto_jobs = 2
let pareto_comms = 20
let pareto_kills = 2

(* A fixed cycle count, no early exit: with the convergence detector on,
   a point's host time hinges on whether its workload happens to
   converge, which made points/s a property of the seed rather than of
   the simulator. *)
let pareto_budget = { Optim.Pareto.cycles = 1000; tolerance = None; warmup = None }

(* ------------------------------------------------------------------ *)
(* Helpers *)

let sum = List.fold_left ( +. ) 0.
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let hex = Printf.sprintf "%h"
let digest s = Digest.to_hex (Digest.string s)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let key name ints = Traffic.Rng.of_key name (List.map Int64.of_int ints)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         else None)
  |> Option.value ~default:nan

let checks_failed = ref 0

let check name ok detail =
  if not ok then incr checks_failed;
  Printf.printf "check %-34s %s  %s\n%!" name (if ok then "ok  " else "FAIL") detail

let routing_counters (w : Routing.Metrics.counters) =
  [
    ("routing.paths_scored", float_of_int w.paths_scored);
    ("routing.dp_cells", float_of_int w.dp_cells);
    ("routing.delta_evals", float_of_int w.delta_evals);
    ("routing.feasibility_checks", float_of_int w.feasibility_checks);
  ]

(* ------------------------------------------------------------------ *)
(* Rounds *)

type round = {
  units : int;  (** Trials, events or design points attempted. *)
  wall : float;  (** Host seconds of the timed region. *)
  busy : float;  (** Host seconds spent in units, summed over domains. *)
  lat : float array;
      (** Host seconds per completed unit: every trial or event, but only
          the design points the simulator scored. *)
  errors : int;  (** Units that raised. *)
  pieces : string list;
      (** Output digest per independently checkable piece: the campaign
          CSV, each served session, each trial's front then the merged
          front. *)
  mismatches : int;  (** Pieces failing their bit-match against a rescore. *)
  power_mw : float;
  fail_ratio : float;
  sim_p95 : float;  (** [nan] where no simulator runs. *)
  direct : (string * float) list;
      (** Per-layer values measured around the calls, not from spans. *)
}

(* ---------------- campaign ---------------- *)

(* Per-trial host time, draw through the last heuristic: the draw marks
   the start on its worker domain, the last heuristic's exit records the
   sample. Trials never interleave on a domain. *)
let trial_start = Domain.DLS.new_key (fun () -> ref 0.)
let trial_lock = Mutex.create ()
let trial_samples = ref []

let campaign_figure =
  let base = Harness.Figure.fig7b in
  {
    base with
    generate =
      (fun rng x ->
        Domain.DLS.get trial_start := now ();
        span ~cat:"traffic" "draw" (fun () -> base.generate rng x));
  }

let campaign_heuristics =
  let last = List.nth Routing.Heuristic.all (List.length Routing.Heuristic.all - 1) in
  let record () =
    let dt = now () -. !(Domain.DLS.get trial_start) in
    Mutex.protect trial_lock (fun () -> trial_samples := dt :: !trial_samples)
  in
  List.map
    (fun (h : Routing.Heuristic.t) ->
      if h != last then h
      else
        {
          h with
          run =
            (fun ?fault m mesh comms ->
              Fun.protect ~finally:record (fun () -> h.run ?fault m mesh comms));
        })
    Routing.Heuristic.all

(* The figure draws its trials inside [Runner.run], so a campaign round
   has nothing to set up but a fresh checkpoint sidecar. *)
let campaign_round ~out ~seed k =
  let checkpoint = Filename.concat out "campaign-checkpoint.tsv" in
  if Sys.file_exists checkpoint then Sys.remove checkpoint;
  fun () ->
    trial_samples := [];
    let t0 = now () in
    let result =
      Harness.Runner.run ~trials:campaign_trials ~seed:((seed * 1000) + k) ~model
        ~heuristics:campaign_heuristics ~jobs:campaign_jobs ~checkpoint
        campaign_figure
    in
    let csv = span ~cat:"harness" "csv" (fun () -> Harness.Render.csv result) in
    let wall = now () -. t0 in
    let rows = result.rows in
    let best (row : Harness.Runner.row) = List.assoc "BEST" row.cells in
    let count r = Float.to_int (Float.round (r *. float_of_int campaign_trials)) in
    let fails = List.fold_left (fun a r -> a + count (best r).failure_ratio) 0 rows in
    let errors =
      List.fold_left
        (fun a (r : Harness.Runner.row) ->
          a + List.fold_left (fun m (_, (s : Harness.Runner.stats)) -> max m (count s.error_ratio)) 0 r.cells)
        0 rows
    in
    (* Mean BEST power over the feasible trials of every row. *)
    let power_sum, feasible =
      List.fold_left
        (fun (p, n) r ->
          let s = best r in
          match s.mean_power with
          | Some mp ->
              let k = campaign_trials - count s.failure_ratio in
              (p +. (mp *. float_of_int k), n + k)
          | None -> (p, n))
        (0., 0) rows
    in
    let work = Routing.Metrics.zero () in
    List.iter (fun r -> Routing.Metrics.add ~into:work (best r).counters) rows;
    let units = campaign_trials * List.length rows in
    let lat = Array.of_list !trial_samples in
    {
      units;
      wall;
      busy = sum (Array.to_list lat);
      lat;
      errors;
      pieces = [ digest csv ];
      mismatches = 0;
      power_mw = power_sum /. float_of_int (max 1 feasible);
      fail_ratio = ratio fails units;
      sim_p95 = nan;
      direct = routing_counters work;
    }

(* ---------------- serve ---------------- *)

(* Each session merges a persistent resident set with a Poisson churn
   stream. A round serves several sessions on distinct resident sets:
   how often a session overloads depends on its residents. *)
let serve_trace ~seed ~k j =
  let rng = key "perfbench-serve" [ seed; k; j ] in
  let weight = Traffic.Workload.mixed in
  let comms = Traffic.Workload.uniform rng mesh ~n:serve_resident ~weight in
  let resident = Traffic.Trace.persistent rng ~rate:serve_rate comms in
  let churn =
    Traffic.Trace.generate ~id_base:serve_resident rng mesh
      ~profile:Traffic.Trace.Poisson ~arrivals:serve_churn ~rate:serve_rate ~weight
  in
  Traffic.Trace.merge resident churn

type served = {
  session : Optim.Online.session;
  matched : bool;  (** [session.final] bit-matches an [of_loads] rescore. *)
  failed : int;  (** Events whose step raised. *)
}

let same_report (a : Routing.Evaluate.report) (b : Routing.Evaluate.report) =
  a.feasible = b.feasible
  && same_bits a.total_power b.total_power
  && same_bits a.static_power b.static_power
  && same_bits a.dynamic_power b.dynamic_power
  && a.active_links = b.active_links
  && same_bits a.max_load b.max_load

let session_digest (s : Optim.Online.session) =
  String.concat " "
    [
      string_of_int s.ops; string_of_int s.s_admitted; string_of_int s.s_shed;
      string_of_int s.s_readmitted; string_of_int s.final_live;
      hex s.mean_power; hex s.mean_power_nosleep; hex s.final.total_power;
    ]

(* One closed-loop session on a fresh service (switch-off on, default
   hysteresis): each event is stepped when the previous one returns. *)
let serve_session ?(observe = fun _ _ -> ()) trace =
  let svc = Optim.Online.create model mesh in
  let failed = ref 0 in
  List.iter
    (fun ev ->
      let t = now () in
      match Optim.Online.step svc ev with
      | op -> observe (now () -. t) (Some op)
      | exception _ ->
          observe (now () -. t) None;
          incr failed)
    trace;
  let session = Optim.Online.session svc in
  let rescored =
    Routing.Evaluate.of_loads model (Routing.Solution.loads (Optim.Online.solution svc))
  in
  { session; matched = same_report session.final rescored; failed = !failed }

let serve_round ~seed k =
  let traces =
    span ~cat:"traffic" "trace" (fun () ->
        List.init serve_sessions (serve_trace ~seed ~k))
  in
  fun () ->
    let n = List.fold_left (fun a tr -> a + List.length tr) 0 traces in
    let lat = Array.make n 0. and i = ref 0 in
    let rung_s = Array.make 6 0. and rung_n = Array.make 6 0 in
    let first_try = ref 0 and passes = ref 0 and rips = ref 0 and reroutes = ref 0 in
    let work = Routing.Metrics.zero () in
    let observe dt op =
      lat.(!i) <- dt;
      incr i;
      Option.iter
        (fun (op : Optim.Online.op) ->
          let r = max 1 (min 5 op.rung) in
          rung_s.(r) <- rung_s.(r) +. dt;
          rung_n.(r) <- rung_n.(r) + 1;
          passes := !passes + op.passes;
          rips := !rips + op.rips;
          reroutes := !reroutes + op.reroutes;
          Routing.Metrics.add ~into:work op.work;
          match op.kind with
          | Arrive _ when op.admitted && op.rung = 1 -> incr first_try
          | _ -> ())
        op
    in
    let t0 = now () in
    let served = List.map (serve_session ~observe) traces in
    let wall = now () -. t0 in
    let total f = List.fold_left (fun a s -> a + f s) 0 served in
    let arrivals = total (fun s -> s.session.s_arrivals) in
    let shed = total (fun s -> s.session.s_shed) in
    let rungs =
      List.concat_map
        (fun r ->
          [
            (Printf.sprintf "optim.online.rung%d_s" r, rung_s.(r));
            (Printf.sprintf "optim.online.rung%d_events" r, float_of_int rung_n.(r));
          ])
        [ 1; 2; 3; 4; 5 ]
    in
    {
      units = n;
      wall;
      busy = wall;
      lat;
      errors = total (fun s -> s.failed);
      pieces = List.map (fun s -> digest (session_digest s.session)) served;
      mismatches = List.length (List.filter (fun s -> not s.matched) served);
      power_mw = mean (List.map (fun s -> s.session.mean_power) served);
      fail_ratio = ratio shed arrivals;
      sim_p95 = nan;
      direct =
        rungs
        @ [
            ("optim.online.first_try_ratio", ratio !first_try arrivals);
            ("optim.online.readmit_ratio", ratio (total (fun s -> s.session.s_readmitted)) shed);
            ("optim.pathfinder.passes", float_of_int !passes);
            ("optim.pathfinder.rips", float_of_int !rips);
            ("optim.online.reroutes", float_of_int !reroutes);
          ]
        @ routing_counters work;
    }

(* ---------------- pareto ---------------- *)

(* The [manroute pareto] design points: the six heuristics, the
   continuous-frequency XYI/PR variants, s-MP at s = 2 and 4, PathFinder
   and Recover. *)
let pareto_points =
  let continuous (h : Routing.Heuristic.t) =
    {
      h with
      name = h.name ^ "/C";
      run =
        (fun ?fault _ mesh comms ->
          h.run ?fault Power.Model.kim_horowitz_continuous mesh comms);
    }
  in
  Routing.Heuristic.all
  @ [ continuous Routing.Heuristic.xyi; continuous Routing.Heuristic.pr ]
  @ [
      Optim.Smp.heuristic ~s:2 ();
      Optim.Smp.heuristic ~s:4 ();
      Optim.Pathfinder.heuristic ~iterations:8 ();
      Optim.Recover.heuristic ~events:4 ();
    ]

(* One trial: a workload draw and its 2-kill slope fault. *)
let pareto_draw ~seed ~k t =
  let rng = key "perfbench-pareto" [ seed; k; t ] in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:pareto_comms ~weight:Traffic.Workload.mixed
  in
  (comms, Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:pareto_kills mesh)

type probe = { cycles : int; flits : int }

let add_probe a b = { cycles = a.cycles + b.cycles; flits = a.flits + b.flits }

(* Re-simulate a feasible point outside the timed region, to split
   [Pareto.measure] into simulator and slope time. *)
let sim_probe ~arena ~fault (report : Routing.Evaluate.report) solution =
  ignore
    (span ~cat:"optim" "pareto.slope" (fun () ->
         Optim.Pareto.slope ~fault ~kills:pareto_kills model solution report.total_power));
  let r =
    span ~cat:"sim" "run" (fun () ->
        let net = Sim.Network.create ~arena model solution in
        Sim.Network.run ?warmup:pareto_budget.warmup ?tolerance:pareto_budget.tolerance
          net ~cycles:pareto_budget.cycles)
  in
  { cycles = (pareto_budget.cycles / 5) + r.cycles; flits = r.flits_moved }

let front_digest points =
  digest
    (String.concat ";"
       (List.map
          (fun (p : Optim.Pareto.point) ->
            let o = p.pt_obj in
            String.concat "," [ p.pt_name; hex o.power; hex o.p50; hex o.p95; hex o.slope ])
          (Optim.Pareto.front points)))

type point = {
  dt : float;  (** Host seconds to route, evaluate and score. *)
  raised : bool;
  scored : (Optim.Pareto.point * bool * (unit -> probe)) option;
      (** A simulated point, whether its power bit-matches [Evaluate], and
          its re-simulation for the traced profile. *)
  work : Routing.Metrics.counters;
}

(* One design point on one workload, on the calling worker domain. *)
let pareto_point (comms, fault) (h : Routing.Heuristic.t) =
  let arena = Sim.Network.Arena.domain () in
  let before = Routing.Metrics.snapshot () in
  let t0 = now () in
  let outcome =
    try
      let solution = span ~cat:"heuristic" h.name (fun () -> h.run model mesh comms) in
      let report =
        span ~cat:"evaluate" "evaluate" (fun () -> Routing.Evaluate.solution model solution)
      in
      let obj =
        span ~cat:"optim" "pareto.measure" (fun () ->
            Optim.Pareto.measure ~arena ~budget:pareto_budget ~fault ~kills:pareto_kills model
              ~report solution)
      in
      Some (solution, report, obj)
    with _ -> None
  in
  let dt = now () -. t0 in
  let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
  match outcome with
  | None -> { dt; raised = true; scored = None; work }
  | Some (_, _, None) -> { dt; raised = false; scored = None; work }
  | Some (solution, report, Some obj) ->
      let rescored = Routing.Evaluate.of_loads model (Routing.Solution.loads solution) in
      let ok = same_bits obj.power report.total_power && same_bits obj.power rescored.total_power in
      let probe () = sim_probe ~arena:(Sim.Network.Arena.domain ()) ~fault report solution in
      { dt; raised = false; scored = Some ({ pt_name = h.name; pt_obj = obj }, ok, probe); work }

(* A round is [trials] workload draws (set-up) through every design point.
   The (trial, design point) pairs are shared out to [pareto_jobs] worker
   domains one at a time, so no domain idles behind a long trial; results
   come back in order whatever the domain count. *)
let pareto_round ?(trials = pareto_trials) ~seed k =
  let inputs =
    span ~cat:"traffic" "draw" (fun () -> Array.init trials (pareto_draw ~seed ~k))
  in
  let designs = Array.of_list pareto_points in
  let per_trial = Array.length designs in
  fun () ->
    let t0 = now () in
    let results =
      Harness.Pool.map ~jobs:pareto_jobs (trials * per_trial) (fun i ->
          pareto_point inputs.(i / per_trial) designs.(i mod per_trial))
    in
    let wall = now () -. t0 in
    let results = Array.to_list results in
    let count f = List.length (List.filter f results) in
    let scored = List.filter_map (fun p -> p.scored) results in
    let points = List.map (fun (pt, _, _) -> pt) scored in
    let trial_points t =
      List.filteri (fun i _ -> i / per_trial = t) results
      |> List.filter_map (fun p -> Option.map (fun (pt, _, _) -> pt) p.scored)
    in
    let p95 =
      List.filter Float.is_finite (List.map (fun (p : Optim.Pareto.point) -> p.pt_obj.p95) points)
    in
    (* Off the clock, traced rounds only. *)
    let probe =
      if not (Harness.Telemetry.enabled ()) then { cycles = 0; flits = 0 }
      else
        let runs = Array.of_list (List.map (fun (_, _, p) -> p) scored) in
        Array.fold_left add_probe { cycles = 0; flits = 0 }
          (Harness.Pool.map ~jobs:pareto_jobs (Array.length runs) (fun i -> runs.(i) ()))
    in
    let work = Routing.Metrics.zero () in
    List.iter (fun p -> Routing.Metrics.add ~into:work p.work) results;
    let units = List.length results in
    {
      units;
      wall;
      busy = sum (List.map (fun p -> p.dt) results);
      lat = Array.of_list (List.filter_map (fun p -> Option.map (fun _ -> p.dt) p.scored) results);
      errors = count (fun p -> p.raised);
      pieces = List.init trials (fun t -> front_digest (trial_points t)) @ [ front_digest points ];
      mismatches = List.length (List.filter (fun (_, ok, _) -> not ok) scored);
      power_mw = mean (List.map (fun (p : Optim.Pareto.point) -> p.pt_obj.power) points);
      fail_ratio = ratio (count (fun p -> Option.is_none p.scored)) units;
      sim_p95 = mean p95;
      direct =
        [
          ("sim.measured_cycles", float_of_int probe.cycles);
          ("sim.flits_moved", float_of_int probe.flits);
        ]
        @ routing_counters work;
    }

(* ------------------------------------------------------------------ *)
(* Phases *)

(* Rounds 0, 1, ... until the next one would be expected to end past
   [seconds]; always at least one. [prepare k] is round k's set-up. *)
type phase = { rounds : round list; rss_mb : float }

let run_phase ~seconds prepare =
  let t0 = now () in
  let rec go acc k =
    let r = prepare k () in
    let acc = r :: acc and elapsed = now () -. t0 in
    if elapsed +. (elapsed /. float_of_int (k + 1)) > seconds then List.rev acc
    else go acc (k + 1)
  in
  let rounds = go [] 0 in
  (* Read before the pooled summaries copy the samples. *)
  { rounds; rss_mb = peak_rss_mb () }

type e2e = { values : (string * float * string) list; tail : Tail.t }

(* The highest percentile each workload reports: the one that still has
   ten samples beyond it on every run of the benchmark's length, so runs
   report the same percentile. *)
let tail_cap = function "campaign" -> "p95" | "serve" -> "p99" | _ -> "p90"

(* End-to-end values of a phase, pooled over its rounds: completed units
   per second of the timed regions, and their latency percentiles. *)
let end_to_end ~workload phase =
  let lat = Array.concat (List.map (fun r -> r.lat) phase.rounds) in
  let tail = Tail.summarize ~cap:(tail_cap workload) lat in
  {
    values =
      [
        ( "work_per_s",
          float_of_int (Array.length lat) /. sum (List.map (fun r -> r.wall) phase.rounds),
          "1/s" );
        ("p50_ms", 1e3 *. tail.p50, "ms");
        ("tail_ms", 1e3 *. tail.tail, "ms");
        ("peak_rss_mb", phase.rss_mb, "MB");
      ];
    tail;
  }

(* The model outputs of round 0: deterministic for a seed, so a change
   that only claims speed must leave them bit-identical. *)
let model_outputs workload r =
  [ ("model.power_mw", r.power_mw, "mW"); ("model.fail_ratio", r.fail_ratio, "ratio") ]
  @ if workload = "pareto" then [ ("sim.p95_cycles", r.sim_p95, "cycles") ] else []

(* ------------------------------------------------------------------ *)
(* Per-layer profile of the traced phase *)

let read_spans path =
  let str line key =
    match Harness.Telemetry.find_field line key with
    | Some i when i < String.length line && line.[i] = '"' ->
        String.sub line (i + 1) (String.index_from line (i + 1) '"' - i - 1)
    | _ -> ""
  in
  let num line key = Option.value ~default:0. (Harness.Telemetry.float_field line key) in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if not (String.starts_with ~prefix:"{" line) then None
         else
           Some
             {
               Fold.name = str line "name";
               cat = str line "cat";
               tid = int_of_float (num line "tid");
               ts = num line "ts" *. 1e-6;
               dur = num line "dur" *. 1e-6;
             })

let layer_metrics =
  [
    "traffic.draw_s"; "traffic.trace_s"; "routing.xy_s"; "routing.sg_s";
    "routing.ig_s"; "routing.tb_s"; "routing.xyi_s"; "routing.pr_s";
    "routing.evaluate_s"; "routing.paths_scored"; "routing.dp_cells";
    "routing.delta_evals"; "routing.feasibility_checks"; "harness.trial_self_s";
    "harness.overhead_s"; "harness.pool_busy_ratio"; "harness.csv_s";
    "optim.online.rung1_s"; "optim.online.rung2_s"; "optim.online.rung3_s";
    "optim.online.rung4_s"; "optim.online.rung5_s"; "optim.online.rung1_events";
    "optim.online.rung2_events"; "optim.online.rung3_events";
    "optim.online.rung4_events"; "optim.online.rung5_events";
    "optim.online.first_try_ratio"; "optim.online.readmit_ratio";
    "optim.pathfinder.passes"; "optim.pathfinder.rips"; "optim.online.reroutes";
    "optim.smp_s"; "optim.pathfinder_s"; "optim.recover_s";
    "optim.pareto.measure_s"; "optim.pareto.slope_s"; "sim.run_s";
    "sim.measured_cycles"; "sim.flits_moved"; "sim.cycles_per_s"; "sim.p95_cycles"; "model.power_mw"; "model.fail_ratio";
  ]

let layer_unit = function
  | "sim.cycles_per_s" -> "cycles/s"
  | "sim.p95_cycles" -> "cycles"
  | "model.power_mw" -> "mW"
  | name when String.ends_with ~suffix:"_s" name -> "s"
  | name when String.ends_with ~suffix:"_ratio" name -> "ratio"
  | _ -> "count"

(* Span key -> per-layer metric. Heuristic spans are named after the
   design point; the continuous variants count toward their base. *)
let metric_of_key = function
  | "traffic/draw" -> Some "traffic.draw_s"
  | "traffic/trace" -> Some "traffic.trace_s"
  | "evaluate/evaluate" -> Some "routing.evaluate_s"
  | "trial/trial" -> Some "harness.trial_self_s"
  | "harness/csv" -> Some "harness.csv_s"
  | "heuristic/SMP2" | "heuristic/SMP4" -> Some "optim.smp_s"
  | "heuristic/PF" | "routing/pathfinder" -> Some "optim.pathfinder_s"
  | "heuristic/REC" | "routing/recover" -> Some "optim.recover_s"
  | "optim/pareto.measure" -> Some "optim.pareto.measure_s"
  | "optim/pareto.slope" -> Some "optim.pareto.slope_s"
  | "sim/run" -> Some "sim.run_s"
  | key when String.starts_with ~prefix:"heuristic/" key ->
      let h = String.sub key 10 (String.length key - 10) in
      let h = Option.value ~default:h (Filename.chop_suffix_opt ~suffix:"/C" h) in
      Some ("routing." ^ String.lowercase_ascii h ^ "_s")
  | _ -> None

(* Per-round values: span self times, the harness shares derived from the
   campaign and trial spans, and the directly measured values. *)
let layer_profile ~workload ~totals rounds =
  let per_round x = x /. float_of_int (List.length rounds) in
  let tbl = Hashtbl.create 64 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (key, (t : Fold.total)) ->
      Option.iter (fun m -> add m (per_round t.self)) (metric_of_key key))
    totals;
  let incl key = match List.assoc_opt key totals with Some t -> t.Fold.inclusive | None -> 0. in
  let campaign_wall = incl "campaign/campaign" and trial_sum = incl "trial/trial" in
  if campaign_wall > 0. then begin
    let jobs = float_of_int campaign_jobs in
    add "harness.overhead_s" (per_round (campaign_wall -. (trial_sum /. jobs)));
    add "harness.pool_busy_ratio" (trial_sum /. (jobs *. campaign_wall))
  end;
  List.iter (fun r -> List.iter (fun (k, v) -> add k (per_round v)) r.direct) rounds;
  let get k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  if get "sim.run_s" > 0. then add "sim.cycles_per_s" (get "sim.measured_cycles" /. get "sim.run_s");
  List.iter (fun (k, v, _) -> add k v) (model_outputs workload (List.hd rounds));
  get

(* ------------------------------------------------------------------ *)
(* Output *)

let print_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, v, u) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
        (if Float.is_finite v then v else 0.)
        u)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let line name value unit = Printf.printf "  %-22s %16.6f %s\n" name value unit

(* The end-to-end table under each workload's own names. *)
let print_table ~workload ~label e2e model =
  let v name = List.find_map (fun (n, x, _) -> if n = name then Some x else None) e2e.values in
  let v name = Option.value ~default:nan (v name) in
  let item = match workload with "campaign" -> "trial" | "serve" -> "event" | _ -> "point" in
  Printf.printf "%s end-to-end (%s):\n" label workload;
  line (item ^ "s_per_s") (v "work_per_s") (item ^ "s/s");
  line (item ^ "_p50_ms") (v "p50_ms") (Printf.sprintf "ms (%d samples)" e2e.tail.n);
  if e2e.tail.tail_label <> "p50" then
    line
      (Printf.sprintf "%s_%s_ms" item e2e.tail.tail_label)
      (v "tail_ms")
      (Printf.sprintf "ms (%d samples)" e2e.tail.n);
  line "peak_rss_mb" (v "peak_rss_mb") "MB";
  List.iter
    (fun (n, x, u) ->
      let n =
        if String.starts_with ~prefix:"model." n then String.sub n 6 (String.length n - 6)
        else n
      in
      line (String.map (fun c -> if c = '.' then '_' else c) n) x ("model " ^ u))
    model

(* ------------------------------------------------------------------ *)
(* Main *)

let usage () =
  prerr_endline
    "usage: main.exe --workload campaign|serve|pareto --seed N --seconds S \
     --trace 0|1 [--out DIR] [--setup-only]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref false and out = ref "." and setup_only = ref false in
  let rec parse = function
    | "--workload" :: w :: tl -> workload := w; parse tl
    | "--seed" :: s :: tl -> seed := int_of_string_opt s; parse tl
    | "--seconds" :: s :: tl ->
        (match float_of_string_opt s with Some f when f > 0. -> seconds := f | _ -> usage ());
        parse tl
    | "--trace" :: (("0" | "1") as t) :: tl -> trace := t = "1"; parse tl
    | "--out" :: d :: tl -> out := d; parse tl
    | "--setup-only" :: tl -> setup_only := true; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let workload = !workload and out = !out in
  let prepare =
    match workload with
    | "campaign" -> campaign_round ~out ~seed
    | "serve" -> serve_round ~seed
    | "pareto" -> pareto_round ~trials:pareto_trials ~seed
    | _ -> usage ()
  in
  (* Set-up: everything round 0 needs before its first timed call. *)
  if !setup_only then begin
    let (_ : unit -> round) = prepare 0 in
    exit 0
  end;
  let plain = run_phase ~seconds:(if !trace then !seconds /. 2. else !seconds) prepare in
  let plain_e2e = end_to_end ~workload plain in
  let model = model_outputs workload (List.hd plain.rounds) in
  print_table ~workload ~label:"untraced" plain_e2e model;
  let first_piece r = List.hd r.pieces in
  let metrics, phases =
    if not !trace then begin
      (* Determinism: round 0's first piece again, off the clock. *)
      let again =
        match workload with
        | "serve" ->
            digest (session_digest (serve_session (serve_trace ~seed ~k:0 0)).session)
        | "pareto" ->
            first_piece (pareto_round ~trials:1 ~seed 0 ())
        | _ -> first_piece (prepare 0 ())
      in
      check (workload ^ ".replay_identical")
        (again = first_piece (List.hd plain.rounds))
        ("digest=" ^ again);
      (plain_e2e.values, [ plain.rounds ])
    end
    else begin
      let sink = Harness.Telemetry.create () in
      Harness.Telemetry.install sink;
      let traced =
        Fun.protect ~finally:Harness.Telemetry.uninstall (fun () ->
            run_phase ~seconds:(!seconds /. 2.) prepare)
      in
      let path = Filename.concat out (workload ^ "-trace.json") in
      let nspans = Harness.Telemetry.write_file sink path in
      let totals = Fold.by_key (fun s -> s.Fold.cat ^ "/" ^ s.name) (read_spans path) in
      let rounds = float_of_int (List.length traced.rounds) in
      let traced_e2e = end_to_end ~workload traced in
      print_table ~workload ~label:"traced" traced_e2e (model_outputs workload (List.hd traced.rounds));
      (* Untraced and traced phases replay the same rounds from 0. *)
      let common = min (List.length plain.rounds) (List.length traced.rounds) in
      let pieces p = List.filteri (fun i _ -> i < common) p.rounds |> List.map (fun r -> r.pieces) in
      check (workload ^ ".traced_identical")
        (pieces plain = pieces traced)
        (Printf.sprintf "digest=%s rounds=%d" (first_piece (List.hd traced.rounds)) common);
      Printf.printf "tracing overhead (traced - untraced):\n";
      List.iter2
        (fun (n, a, u) (_, b, _) -> line n (a -. b) u)
        traced_e2e.values plain_e2e.values;
      Printf.printf "span profile (%d spans, %g rounds; seconds per round):\n" nspans rounds;
      Printf.printf "  %-28s %12s %12s %8s\n" "cat/name" "inclusive" "self" "spans";
      List.iter
        (fun (k, (t : Fold.total)) ->
          Printf.printf "  %-28s %12.6f %12.6f %8d\n" k (t.inclusive /. rounds)
            (t.self /. rounds) t.count)
        totals;
      let get = layer_profile ~workload ~totals traced.rounds in
      (* Does the workload stress its intended layer? *)
      let host = mean (List.map (fun (r : round) -> r.busy) traced.rounds) in
      let share label part whole bar =
        Printf.printf "stress %-44s %6.1f%% (expected > %.0f%%)\n" label
          (100. *. part /. whole) bar
      in
      (match workload with
      | "campaign" ->
          share "routing.pr_s + routing.xyi_s of trial time"
            (get "routing.pr_s" +. get "routing.xyi_s") host 80.
      | "serve" ->
          share "optim.online.rung4_s + rung5_s of host time"
            (get "optim.online.rung4_s" +. get "optim.online.rung5_s") host 50.
      | _ -> share "optim.pareto.measure_s of host time" (get "optim.pareto.measure_s") host 70.);
      (List.map (fun n -> (n, get n, layer_unit n)) layer_metrics, [ plain.rounds; traced.rounds ])
    end
  in
  let all : round list = List.concat phases in
  let mismatches = List.fold_left (fun a (r : round) -> a + r.mismatches) 0 all in
  (match workload with
  | "serve" ->
      check "serve.final_bitmatch_of_loads" (mismatches = 0)
        (Printf.sprintf "sessions=%d mismatched=%d" (List.length all * serve_sessions) mismatches)
  | "pareto" ->
      check "pareto.power_bitmatch_evaluate" (mismatches = 0)
        (Printf.sprintf "mismatched=%d merged-front=%s" mismatches
           (List.nth (List.hd plain.rounds).pieces pareto_trials))
  | _ -> ());
  let errors = List.fold_left (fun a (r : round) -> a + r.errors) 0 all in
  check (workload ^ ".no_errors") (errors = 0) (Printf.sprintf "errors=%d" errors);
  let attempted = List.fold_left (fun a r -> a + r.units) 0 all in
  let correct = !checks_failed = 0 in
  print_json ~correct ~attempted ~failed:errors metrics;
  if not correct then exit 1
