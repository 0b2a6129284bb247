type stats = {
  failure_ratio : float;
  error_ratio : float;
  norm_inv_power : float;
  norm_stderr : float;
  mean_power : float option;
  mean_detour_hops : float;
  error_example : string option;
  counters : Routing.Metrics.counters;
  engine : float option list;
}

type row = { x : float; cells : (string * stats) list }

type result = {
  figure : Figure.t;
  trials : int;
  seed : int;
  rows : row list;
}

let default_trials () =
  match Sys.getenv_opt "MANROUTE_TRIALS" with
  | None -> 150
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf
            "manroute: warning: ignoring invalid MANROUTE_TRIALS=%S (want a \
             positive integer); using 150 trials\n\
             %!"
            s;
          150)

(* CLOCK_MONOTONIC, in seconds. [Sys.time] is process CPU time: summed
   over all domains it over-counts wall time by the worker count. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let trial_rng ~figure_id ~x ~seed ~trial =
  Traffic.Rng.of_key figure_id
    [ Int64.of_int seed; Int64.bits_of_float x; Int64.of_int trial ]

(* ------------------------------------------------------------------ *)
(* The trial pipeline: shared by a campaign trial, its audit re-capture
   and [manroute inspect] *)

type attempt = {
  heuristic : Routing.Heuristic.t;
  outcome : (Routing.Best.outcome, string) Stdlib.result;
  note : Routing.Heuristic.note option;
  work : Routing.Metrics.counters;
  seconds : float;
}

let attempt ?fault model mesh comms (h : Routing.Heuristic.t) =
  Telemetry.span ~cat:"heuristic" h.name @@ fun () ->
  let before = Routing.Metrics.snapshot () in
  let t0 = now_s () in
  let outcome, note =
    match
      let solution, note =
        Routing.Heuristic.run_noted h ?fault model mesh comms
      in
      let report =
        Telemetry.span ~cat:"evaluate" "evaluate" (fun () ->
            Routing.Evaluate.solution ?fault model solution)
      in
      ({ Routing.Best.heuristic = h; solution; report }, note)
    with
    | outcome, note -> (Ok outcome, note)
    | exception e -> (Error (Printexc.to_string e), None)
  in
  let seconds = now_s () -. t0 in
  {
    heuristic = h;
    outcome;
    note;
    seconds;
    work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before;
  }

let name_of a = a.heuristic.Routing.Heuristic.name

(* Everything one trial computed, before any of it is folded. *)
type capture = {
  attempts : attempt list;
  best : Routing.Best.outcome option;
  fault : Noc.Fault.t option;
  objectives : (string * Optim.Pareto.objectives) list;
      (* Per-heuristic Pareto points of a sim figure, in attempt order. *)
  front : string list option;
      (* The trial's non-dominated front; [Some] exactly on sim figures. *)
  trial_work : Routing.Metrics.counters;
      (* The whole trial: draw, every heuristic, repair, evaluation and
         Pareto scoring. *)
}

let capture ~model ~heuristics ~figure ~x ~seed t =
  let before = Routing.Metrics.snapshot () in
  (* Paired figures key their trials across x: the rng is keyed by the
     trial alone, so trial [t] draws the same communications at every x.
     Scenario generators that sample kills sequentially (e.g.
     {!Noc.Fault.random_dead}) then draw nested fault sets — row [x+dx]
     damages a superset of row [x]'s links — and parameter sweeps like the
     s-MP path budget see the very same instances at every budget. The
     sweep is monotone by construction instead of up to Monte-Carlo
     noise. *)
  let rng_x = if figure.Figure.paired then 0. else x in
  let rng = trial_rng ~figure_id:figure.Figure.id ~x:rng_x ~seed ~trial:t in
  let sim = Option.map (fun f -> f x) figure.Figure.sim in
  (* The workload comes off the rng before the fault, so a trial's
     communications are the same whatever the scenario does with x. The
     Pareto slope fault draws last — after workload and scenario — so it
     perturbs neither, and on paired figures (the rng ignores x) trial [t]
     probes resilience against the very same damage at every budget. *)
  match
    let comms = figure.Figure.generate rng x in
    let fault = Option.map (fun f -> f rng x) figure.Figure.scenario in
    let sim_fault =
      match sim with
      | Some sp when sp.Figure.sim_kills > 0 ->
          Some
            (Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng)
               ~kills:sp.Figure.sim_kills Figure.mesh)
      | _ -> None
    in
    (comms, fault, sim_fault)
  with
  | exception e -> Error (Printexc.to_string e)
  | comms, fault, sim_fault ->
      let attempts =
        List.map (attempt ?fault model Figure.mesh comms) heuristics
      in
      let outcomes =
        List.filter_map (fun a -> Result.to_option a.outcome) attempts
      in
      (* Pareto scoring: every feasible attempt is simulated (one shared
         per-domain arena recycles the buffers) and probed for its slope,
         then the trial's non-dominated front is computed over the
         heuristic points. Deterministic — the simulator carries no RNG
         and the slope fault was drawn above — so the points are
         jobs-invariant like every other contribution. *)
      let objectives =
        match sim with
        | None -> []
        | Some sp ->
            Telemetry.span ~cat:"sim" "pareto" @@ fun () ->
            let arena = Sim.Network.Arena.domain () in
            let budget =
              {
                Optim.Pareto.cycles = sp.Figure.sim_cycles;
                tolerance = sp.Figure.sim_tolerance;
                warmup = None;
              }
            in
            List.filter_map
              (fun (o : Routing.Best.outcome) ->
                Option.map
                  (fun obj -> (o.heuristic.Routing.Heuristic.name, obj))
                  (Optim.Pareto.measure ~arena ~budget ?fault:sim_fault
                     ~kills:sp.Figure.sim_kills model ~report:o.report
                     o.solution))
              outcomes
      in
      let front =
        Option.map
          (fun _ ->
            List.map
              (fun (p : Optim.Pareto.point) -> p.pt_name)
              (Optim.Pareto.front
                 (List.map
                    (fun (pt_name, pt_obj) -> { Optim.Pareto.pt_name; pt_obj })
                    objectives)))
          sim
      in
      Ok
        {
          attempts;
          best = Routing.Best.best_of outcomes;
          fault;
          objectives;
          front;
          trial_work =
            Routing.Metrics.diff (Routing.Metrics.snapshot ()) before;
        }

(* ------------------------------------------------------------------ *)
(* Keyed columns *)

type column = {
  name : string;
  fill :
    sim:(Optim.Pareto.objectives * bool) option ->
    Routing.Heuristic.note option ->
    float option;
}

let columns =
  (* A NaN quantile (nothing delivered inside the measured window) stays
     out of the latency means but still counts toward the slope and front
     populations — the point existed and competed. *)
  let latency get ~sim _ =
    match sim with
    | Some ((o : Optim.Pareto.objectives), _)
      when Float.is_finite o.p50 && Float.is_finite o.p95 ->
        Some (get o)
    | _ -> None
  in
  let scored get ~sim _ = Option.map get sim in
  let served get ~sim:_ = function
    | Some (Optim.Online.Session s) -> Some (get s)
    | _ -> None
  in
  [
    { name = "p50"; fill = latency (fun o -> o.p50) };
    { name = "p95"; fill = latency (fun o -> o.p95) };
    { name = "slope"; fill = scored (fun (o, _) -> o.Optim.Pareto.slope) };
    { name = "front"; fill = scored (fun (_, on) -> if on then 1. else 0.) };
    { name = "srv_power"; fill = served (fun s -> s.Optim.Online.mean_power) };
    { name = "srv_saved"; fill = served (fun s -> s.Optim.Online.saved_ratio) };
    { name = "srv_p95"; fill = served (fun s -> s.Optim.Online.p95_work) };
  ]

let fields =
  [
    ("norm", fun s -> Checkpoint.Float s.norm_inv_power);
    ("stderr", fun s -> Checkpoint.Float s.norm_stderr);
    ("fail", fun s -> Checkpoint.Float s.failure_ratio);
    ("err", fun s -> Checkpoint.Float s.error_ratio);
    ("detour", fun s -> Checkpoint.Float s.mean_detour_hops);
    ("power", fun s -> Checkpoint.Opt s.mean_power);
  ]
  @ List.map
      (fun (f : Routing.Metrics.field) ->
        (f.suffix, fun s -> Checkpoint.Int (f.get s.counters)))
      Routing.Metrics.fields
  @ List.mapi
      (fun i c -> (c.name, fun s -> Checkpoint.Opt (List.nth s.engine i)))
      columns

(* The checkpoint carries every CSV field plus the error example. *)
let checkpoint_fields =
  fields @ [ ("error", fun s -> Checkpoint.Msg s.error_example) ]

let stats_of (r : Checkpoint.reader) =
  {
    norm_inv_power = r.float "norm";
    norm_stderr = r.float "stderr";
    failure_ratio = r.float "fail";
    error_ratio = r.float "err";
    mean_detour_hops = r.float "detour";
    mean_power = r.opt "power";
    error_example = r.msg "error";
    counters = Routing.Metrics.init (fun f -> r.int f.suffix);
    engine = List.map (fun c -> r.opt c.name) columns;
  }

let append_row ~path key row =
  Checkpoint.append ~path key ~x:row.x
    (List.map
       (fun (name, s) ->
         (name, List.map (fun (c, get) -> (c, get s)) checkpoint_fields))
       row.cells)

let load_rows ~path key =
  Checkpoint.load ~path key ~columns:(List.map fst checkpoint_fields) stats_of

(* ------------------------------------------------------------------ *)
(* Folding trials into cells *)

(* What one trial contributes to one cell. Immutable: trials are evaluated
   on worker domains and folded afterwards in trial order, so the floating
   sums associate identically for every job count. *)
type contribution =
  | Fail
  | Errored of string
  | Feasible of {
      norm : float;
      power : float;
      detour : int;
      engine : float option list;  (* one value per [columns] entry *)
    }

type trial = {
  contribs : (string * contribution) list;
  work : (string * Routing.Metrics.counters) list;
      (** Work-counter deltas, same names and order as [contribs]:
          per-heuristic for the heuristic cells, the whole-trial delta for
          BEST. A trial runs entirely on one domain, so snapshot
          differences are exact — and the work a trial does is a function
          of its rng key alone, so these are jobs-invariant like
          everything else. *)
  obs : Summary.obs option;
      (** [None] when anything raised: a trial with a missing or partial
          outcome set would skew the Section 6.4 aggregates. *)
}

let cell_names heuristics =
  List.map (fun (h : Routing.Heuristic.t) -> h.Routing.Heuristic.name)
    heuristics
  @ [ "BEST" ]

let errored_trial ~names msg =
  {
    contribs = List.map (fun name -> (name, Errored msg)) names;
    work = List.map (fun name -> (name, Routing.Metrics.zero ())) names;
    obs = None;
  }

let fold_trial c =
  let best_power =
    Option.map
      (fun (o : Routing.Best.outcome) -> o.report.Routing.Evaluate.total_power)
      c.best
  in
  let contribution a =
    match (a.outcome, best_power) with
    | Ok o, Some pb when o.report.feasible ->
        let name = name_of a in
        let on_front = Option.fold ~none:false ~some:(List.mem name) c.front in
        let sim =
          Option.map
            (fun obj -> (obj, on_front))
            (List.assoc_opt name c.objectives)
        in
        Feasible
          {
            norm = pb /. o.report.total_power;
            power = o.report.total_power;
            detour = o.report.detour_hops;
            engine = List.map (fun col -> col.fill ~sim a.note) columns;
          }
    | Ok _, _ -> Fail
    | Error msg, _ -> Errored msg
  in
  let outcomes =
    List.filter_map (fun a -> Result.to_option a.outcome) c.attempts
  in
  let work =
    List.map (fun a -> (name_of a, a.work)) c.attempts
    @ [ ("BEST", c.trial_work) ]
  in
  {
    contribs =
      List.map (fun a -> (name_of a, contribution a)) c.attempts
      @ [
          ( "BEST",
            (* The BEST cell mirrors its winner's measurement — same point,
               same front membership, same serve session. *)
            match c.best with
            | Some o ->
                contribution
                  (List.find (fun a -> name_of a = o.heuristic.name) c.attempts)
            | None -> Fail );
        ];
    work;
    obs =
      (if List.exists (fun a -> Result.is_error a.outcome) c.attempts then None
       else
         Some
           (Summary.observation ~pareto:c.objectives ~outcomes ~best:c.best
              ~times:(List.map (fun a -> (name_of a, a.seconds)) c.attempts)
              ~counters:work));
  }

let run_trial ~model ~heuristics ~figure ~x ~seed t =
  Telemetry.span ~cat:"trial"
    ~args:[ ("trial", string_of_int t); ("x", Printf.sprintf "%g" x) ]
    "trial"
  @@ fun () ->
  match capture ~model ~heuristics ~figure ~x ~seed t with
  | Error msg -> errored_trial ~names:(cell_names heuristics) msg
  | Ok c -> fold_trial c

type cell_acc = {
  fails : int;
  errors : int;
  error_example : string option;
  norm_sum : float;
  norm_sumsq : float;
  power_sum : float;
  power_n : int;
  detour_sum : int;
  sums : (float * int) list;
      (* Per engine column: the sum over its own population, in trial
         order, and that population's size. *)
  work : Routing.Metrics.counters;
      (* Mutable block accumulated in place across the functional updates
         below — which is why this must be a function, not a shared
         constant: each cell needs its own block. *)
}

let cell_zero () =
  {
    fails = 0;
    errors = 0;
    error_example = None;
    norm_sum = 0.;
    norm_sumsq = 0.;
    power_sum = 0.;
    power_n = 0;
    detour_sum = 0;
    sums = List.map (fun _ -> (0., 0)) columns;
    work = Routing.Metrics.zero ();
  }

let cell_add c = function
  | Fail -> { c with fails = c.fails + 1 }
  | Errored msg ->
      {
        c with
        fails = c.fails + 1;
        errors = c.errors + 1;
        error_example =
          (match c.error_example with Some _ as e -> e | None -> Some msg);
      }
  | Feasible { norm = v; power; detour; engine } ->
      {
        c with
        norm_sum = c.norm_sum +. v;
        norm_sumsq = c.norm_sumsq +. (v *. v);
        power_sum = c.power_sum +. power;
        power_n = c.power_n + 1;
        detour_sum = c.detour_sum + detour;
        sums =
          List.map2
            (fun (sum, n) -> function
              | Some v -> (sum +. v, n + 1) | None -> (sum, n))
            c.sums engine;
      }

let stats_of_cell ~trials c =
  let n = float_of_int trials in
  let mean = c.norm_sum /. n in
  let variance = Float.max 0. ((c.norm_sumsq /. n) -. (mean *. mean)) in
  {
    failure_ratio = float_of_int c.fails /. n;
    error_ratio = float_of_int c.errors /. n;
    norm_inv_power = mean;
    norm_stderr = sqrt (variance /. n);
    mean_power =
      (if c.power_n = 0 then None else Some (c.power_sum /. float_of_int c.power_n));
    mean_detour_hops =
      (if c.power_n = 0 then 0.
       else float_of_int c.detour_sum /. float_of_int c.power_n);
    error_example = c.error_example;
    counters = c.work;
    engine =
      List.map
        (fun (sum, n) -> if n = 0 then None else Some (sum /. float_of_int n))
        c.sums;
  }

(* What the audit selector needs to know about one finished trial, read
   straight off the trial-ordered result array. *)
let audit_verdict = function
  | Error _ -> { Audit.best_power = None; errored = true; shed = false }
  | Ok t ->
      let best_power =
        match List.assoc_opt "BEST" t.contribs with
        | Some (Feasible { power; _ }) -> Some power
        | _ -> None
      in
      let errored =
        List.exists
          (fun (_, c) -> match c with Errored _ -> true | _ -> false)
          t.contribs
      in
      let shed =
        List.exists
          (fun (_, w) -> w.Routing.Metrics.recover_sheds > 0)
          t.work
      in
      { Audit.best_power; errored; shed }

(* Re-run one selected trial through the same pipeline on the calling
   domain to capture its audit record: [trial_rng] replays it exactly,
   and the best solution is probed. Selection reads the trial-ordered
   result array and capture is single-domain, so the artifact is
   byte-identical whatever [MANROUTE_JOBS] was. *)
let audit_record ~model ~heuristics ~figure ~x ~seed ~trials (t, kinds) =
  Telemetry.span ~cat:"audit" ~args:[ ("trial", string_of_int t) ] "audit"
  @@ fun () ->
  let cell name outcome note objectives =
    { Audit.cell_name = name; outcome; note; objectives }
  in
  let cells, best, front, probe =
    match capture ~model ~heuristics ~figure ~x ~seed t with
    | Error msg ->
        ( List.map
            (fun (h : Routing.Heuristic.t) -> cell h.name (Error msg) None None)
            heuristics,
          None,
          None,
          None )
    | Ok c ->
        ( List.map
            (fun a ->
              cell (name_of a)
                (Result.map
                   (fun (o : Routing.Best.outcome) -> o.report)
                   a.outcome)
                a.note
                (List.assoc_opt (name_of a) c.objectives))
            c.attempts,
          Option.map
            (fun (o : Routing.Best.outcome) -> o.heuristic.name)
            c.best,
          c.front,
          Option.map
            (fun (o : Routing.Best.outcome) ->
              Routing.Probe.solution ?fault:c.fault model o.solution)
            c.best )
  in
  {
    Audit.figure_id = figure.Figure.id;
    seed;
    trials;
    x;
    trial = t;
    kinds;
    cells;
    best;
    front;
    probe;
  }

let run ?trials ?(seed = 1) ?(model = Power.Model.kim_horowitz)
    ?(heuristics = Routing.Heuristic.all) ?jobs ?summary ?checkpoint ?progress
    ?audit figure =
  let trials = match trials with Some t -> t | None -> default_trials () in
  (* Figures may parameterize their heuristic set by x ({!Figure.figs});
     the cell names must not change along the sweep, so the first row's
     names serve for the whole CSV. *)
  let heuristics_at x =
    match figure.Figure.heuristics with Some f -> f x | None -> heuristics
  in
  let key =
    { Checkpoint.figure_id = figure.Figure.id; seed; trials }
  in
  let audit_sink =
    Option.map (fun dir -> Audit.create ~dir ~figure_id:figure.Figure.id) audit
  in
  let resumed =
    match checkpoint with
    | None -> []
    (* Reversed so that, should a row ever appear twice, the most recently
       appended one wins the [assoc] lookup. *)
    | Some path -> List.rev (load_rows ~path key)
  in
  let rows =
    Telemetry.span ~cat:"campaign"
      ~args:[ ("figure", figure.Figure.id) ]
      "campaign"
    @@ fun () ->
    List.map
      (fun x ->
        match List.assoc_opt x resumed with
        | Some cells ->
            (* Checkpoint-credited trials did no work this run: [advance]
               keeps them out of the progress line's ETA rate. *)
            (match progress with
            | Some p ->
                Telemetry.Progress.advance p trials;
                Telemetry.Progress.row p
            | None -> ());
            { x; cells }
        | None ->
            Telemetry.span ~cat:"row"
              ~args:[ ("x", Printf.sprintf "%g" x) ]
              "row"
            @@ fun () ->
            let heuristics = heuristics_at x in
            let names = cell_names heuristics in
            let f = run_trial ~model ~heuristics ~figure ~x ~seed in
            let f =
              match progress with
              | None -> f
              | Some p ->
                  fun i ->
                    let t = f i in
                    (* [obs = None] exactly when something raised. *)
                    if t.obs = None then Telemetry.Progress.error p;
                    t
            in
            let results =
              Pool.map_result ?jobs
                ?tick:
                  (Option.map
                     (fun p () -> Telemetry.Progress.tick p)
                     progress)
                trials f
            in
            let cells =
              Array.fold_left
                (fun cells trial ->
                  let t =
                    match trial with
                    | Ok t -> t
                    | Error msg -> errored_trial ~names msg
                  in
                  List.map2
                    (fun (name, c) ((name', contrib), (_, w)) ->
                      assert (name = name');
                      Routing.Metrics.add ~into:c.work w;
                      (name, cell_add c contrib))
                    cells
                    (List.combine t.contribs t.work))
                (List.map (fun name -> (name, cell_zero ())) names)
                results
            in
            (match summary with
            | Some acc ->
                Array.iter
                  (function
                    | Ok { obs = Some obs; _ } -> Summary.add acc obs
                    | Ok { obs = None; _ } | Error _ -> ())
                  results
            | None -> ());
            (match audit_sink with
            | None -> ()
            | Some sink ->
                let verdicts = Array.map audit_verdict results in
                List.iter
                  (fun selected ->
                    Audit.write sink
                      (audit_record ~model ~heuristics ~figure ~x ~seed
                         ~trials selected))
                  (Audit.select verdicts));
            let row =
              {
                x;
                cells =
                  List.map
                    (fun (name, c) -> (name, stats_of_cell ~trials c))
                    cells;
              }
            in
            Option.iter (fun path -> append_row ~path key row) checkpoint;
            Option.iter Telemetry.Progress.row progress;
            row)
      figure.Figure.xs
  in
  Option.iter Audit.close audit_sink;
  { figure; trials; seed; rows }

let exit_on_error f =
  let fail msg =
    Printf.eprintf "error: %s\n%!" msg;
    exit 1
  in
  match f () with
  | v -> v
  | exception Sys_error msg -> fail msg
  | exception ((Checkpoint.Corrupt _ | Checkpoint.Mismatch _) as e) ->
      fail (Printexc.to_string e)
