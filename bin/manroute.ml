(* manroute: command-line front end for the power-aware Manhattan routing
   library. Sub-commands: route (solve one instance), figure (reproduce a
   paper figure), experiment (print the reproduction tables), inspect
   (per-link power grid, per-communication attribution and blame of one
   solution), recover, serve, pareto, pattern, optimal (exact solver vs
   heuristics), generate (write a random problem file). *)

open Cmdliner

(* ---------------- shared arguments ---------------- *)

let mesh_arg =
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some rows, Some cols
          when rows >= 1 && cols >= 1 && (rows > 1 || cols > 1) -> (
            try Ok (Noc.Mesh.create ~rows ~cols)
            with Invalid_argument _ ->
              Error (`Msg (s ^ " has too many links")))
        | _ -> Error (`Msg "expected ROWSxCOLS with at least two cores"))
    | _ -> Error (`Msg "expected ROWSxCOLS")
  in
  let print ppf m =
    Format.fprintf ppf "%dx%d" (Noc.Mesh.rows m) (Noc.Mesh.cols m)
  in
  Arg.conv (parse, print)

let mesh_t =
  Arg.(
    value
    & opt mesh_arg (Noc.Mesh.square 8)
    & info [ "mesh" ] ~docv:"PxQ" ~doc:"Mesh dimensions (default 8x8).")

let model_conv =
  Arg.enum
    [
      ("kim-horowitz", Power.Model.kim_horowitz);
      ("continuous", Power.Model.kim_horowitz_continuous);
      ("theory", Power.Model.theory ());
    ]

let model_t =
  Arg.(
    value
    & opt model_conv Power.Model.kim_horowitz
    & info [ "model" ]
        ~doc:
          "Power model: $(b,kim-horowitz) (paper's discrete frequencies), \
           $(b,continuous), or $(b,theory) (P_leak=0, P0=1, alpha=3).")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

(* Strictly positive integer arguments ("--jobs 0", "--trials -3" or
   "--trials many" must die with a one-line error, not be silently
   remapped to a default). *)
let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is negative" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Strictly positive finite floats ("--rate 0" and "--rate nan" must
   die with a one-line error). *)
let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. && Float.is_finite f -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive number" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Non-negative finite floats ([--sim-tolerance], [--wake-penalty]). *)
let nonneg_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0. && Float.is_finite f -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a non-negative number" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A name resolved by [find]; an unknown name is a command-line error. *)
let find_conv ~what find name_of =
  let parse s =
    match find s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %s" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name_of v))

(* [find_conv] plus a [keyword] ([all] or [best]) that parses to [None]. *)
let keyword_conv ~keyword ~what find name_of =
  let find s =
    if String.lowercase_ascii s = keyword then Some None
    else Option.map Option.some (find s)
  in
  find_conv ~what find (function None -> keyword | Some v -> name_of v)

(* End the command with one [error:] line on stderr and exit 1. *)
let fail fmt =
  Format.kasprintf
    (fun m ->
      Printf.eprintf "error: %s\n%!" m;
      exit 1)
    fmt

(* A finite weight band 0 < LO <= HI, checked by [Workload.weight]. *)
let weight_conv =
  let pair = Arg.conv_parser Arg.(pair ~sep:',' float float) in
  let parse s =
    Result.bind (pair s) (fun (lo, hi) ->
        try Ok (Traffic.Workload.weight ~lo ~hi)
        with Invalid_argument _ ->
          Error
            (`Msg (Printf.sprintf "%s is not a finite band 0 < LO <= HI" s)))
  in
  let print ppf (w : Traffic.Workload.weight) =
    Format.fprintf ppf "%g,%g" w.w_lo w.w_hi
  in
  Arg.conv (parse, print)

let n_t =
  Arg.(
    value
    & opt nonneg_int_conv 20
    & info [ "n"; "count" ] ~doc:"Number of random communications.")

let weight_t =
  Arg.(
    value
    & opt weight_conv Traffic.Workload.mixed
    & info [ "weights" ] ~docv:"LO,HI"
        ~doc:"Uniform weight band in Mb/s (default 100,2500).")

let file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:"Read the instance from a problem file instead of drawing it.")

(* The instance a command routes: read from [--file], or the workload
   drawn from the seed's stream after skipping [skip] earlier draws. A
   bad file prints one error line and exits 1. *)
let load_instance ?(skip = 0) mesh seed n weight file =
  match file with
  | Some path -> (
      match Harness.Problem.parse_file path with
      | Ok p -> (p.Harness.Problem.mesh, p.comms)
      | Error m -> fail "%s" m)
  | None ->
      let rng = Traffic.Rng.create seed in
      let draw () = Traffic.Workload.uniform rng mesh ~n ~weight in
      for _ = 1 to skip do
        ignore (draw ())
      done;
      (mesh, draw ())

let kill_t =
  Arg.(
    value
    & opt nonneg_int_conv 0
    & info [ "kill" ] ~docv:"N"
        ~doc:
          "Kill N random links (connectivity-preserving, seeded from \
           $(b,--seed)) before routing; heuristics detour around the \
           damage.")

(* The [--kill] damage, keyed off the seed and printed; [None] for 0. *)
let kill_fault seed kill mesh =
  if kill = 0 then None
  else begin
    let rng = Traffic.Rng.of_key "cli-kill" [ Int64.of_int seed ] in
    let f =
      Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:kill mesh
    in
    Format.printf "%a@." Noc.Fault.pp f;
    Some f
  end

(* Every policy the CLI can name, resolved by the first finder that
   knows the spelling: the paper's six, the natively fault-aware Optim
   engines, then the fault-oblivious reference extensions ([of_plain]
   bolts the degradation-aware repair pass onto those so --kill works
   there too). *)
let finders =
  [
    Routing.Heuristic.find;
    Optim.Smp.find;
    Optim.Pathfinder.find;
    Optim.Recover.find;
    Optim.Online.find;
    (fun name ->
      match String.uppercase_ascii name with
      | "SA" ->
          Some
            (Routing.Heuristic.of_plain ~name:"SA"
               ~description:"simulated annealing (reference)"
               (fun model mesh comms -> Routing.Annealer.route mesh model comms))
      | ("PRMP2" | "PRMP4") as name ->
          let s = if name = "PRMP2" then 2 else 4 in
          Some
            (Routing.Heuristic.of_plain ~name
               ~description:"multi-path path remover"
               (fun _model mesh comms ->
                 Routing.Path_remover.route_multipath ~s mesh comms))
      | _ -> None);
  ]

(* [--heuristic]: [keyword] ([all] or [best]) parses to [None] and stands
   for the paper's six; any other name must resolve through [finders]. *)
let heuristic_t ~keyword ~doc =
  let heuristic =
    keyword_conv ~keyword ~what:"heuristic"
      (fun name -> List.find_map (fun find -> find name) finders)
      (fun (h : Routing.Heuristic.t) -> h.name)
  in
  Arg.(value & opt heuristic None & info [ "heuristic" ] ~doc)

(* Every subcommand runs behind one error boundary: an output that cannot
   be written or a sidecar that cannot resume ends it with one [error:]
   line and exit 1; any other exception still reaches cmdliner. *)
let command name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const Harness.Runner.exit_on_error $ term)

(* ---------------- route ---------------- *)

let route_cmd =
  let heuristic_t =
    heuristic_t ~keyword:"all"
      ~doc:
        "One of XY, SG, IG, TB, XYI, PR, $(b,all) (the paper's six), or \
         the extensions SA (simulated annealing), PRMP2/PRMP4 (multi-path \
         path remover), SMP$(i,s) — e.g. smp4 — \
         (flow-guided s-MP: Frank-Wolfe flow rounded onto at most s paths \
         per communication), PF$(i,n) — e.g. pf, pf16 — \
         (negotiated-congestion PathFinder rip-up-and-reroute, at most n \
         iterations) and REC$(i,n) — e.g. rec, rec8 — (live recovery \
         surviving an n-event fault schedule derived from the workload)."
  in
  let sim_t =
    Arg.(
      value & flag
      & info [ "sim" ]
          ~doc:"Validate the best feasible routing on the wormhole simulator.")
  in
  let verbose_t =
    Arg.(value & flag & info [ "paths" ] ~doc:"Print the chosen paths.")
  in
  let heatmap_t =
    Arg.(
      value & flag
      & info [ "heatmap" ]
          ~doc:"Print an ASCII link-load map of the best feasible routing.")
  in
  let run mesh model seed n weight file heuristic sim paths heatmap kill () =
    let mesh, comms = load_instance mesh seed n weight file in
    Format.printf "%d communications on %a, %a@." (List.length comms)
      Noc.Mesh.pp mesh Power.Model.pp model;
    let fault = kill_fault seed kill mesh in
    let heuristics =
      match heuristic with None -> Routing.Heuristic.all | Some h -> [ h ]
    in
    let outcomes =
      Routing.Best.run_all ~heuristics ?fault model mesh comms
    in
    List.iter
      (fun (o : Routing.Best.outcome) ->
        Format.printf "%-4s %a@." o.heuristic.name
          Routing.Evaluate.pp_report o.report;
        if paths then
          List.iter
            (fun (r : Routing.Solution.route) ->
              List.iter
                (fun (p, share) ->
                  Format.printf "      %g via %a@." share Noc.Path.pp p)
                r.paths;
              List.iter
                (fun (w, share) ->
                  Format.printf "      %g via detour %a@." share Noc.Walk.pp
                    w)
                r.detours)
            (Routing.Solution.routes o.solution))
      outcomes;
    (match Routing.Best.best_of outcomes with
    | Some best ->
        Format.printf "BEST %s %a@." best.heuristic.name
          Routing.Evaluate.pp_report best.report;
        if heatmap then
          print_string
            (Harness.Render.heatmap
               ~capacity:model.Power.Model.capacity
               (Routing.Solution.loads best.solution));
        if sim then begin
          let v = Sim.Validate.run model best.solution in
          Format.printf "%a@." Sim.Network.pp_report v.Sim.Validate.report;
          Format.printf "sim verdict: %s@."
            (if v.all_delivered then "all rates delivered"
             else "under-delivery detected")
        end
    | None -> Format.printf "BEST: no feasible routing found@.")
  in
  command "route" ~doc:"Route an instance with the paper's heuristics"
    Term.(
      const run $ mesh_t $ model_t $ seed_t $ n_t $ weight_t $ file_t
      $ heuristic_t $ sim_t $ verbose_t $ heatmap_t $ kill_t)

(* ---------------- generate ---------------- *)

let generate_cmd =
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output problem file.")
  in
  let run mesh seed n weight out () =
    let mesh, comms = load_instance mesh seed n weight None in
    Harness.Problem.save out { Harness.Problem.mesh; comms };
    Printf.printf "wrote %s (%d communications)\n" out (List.length comms)
  in
  command "generate" ~doc:"Write a random problem file"
    Term.(const run $ mesh_t $ seed_t $ n_t $ weight_t $ out_t)

(* ---------------- figure ---------------- *)

let figure_cmd =
  let id_t =
    Arg.(
      required
      & pos 0
          (some
             (keyword_conv ~keyword:"all" ~what:"figure" Harness.Figure.find
                (fun f -> f.Harness.Figure.id)))
          None
      & info [] ~docv:"FIGURE"
          ~doc:
            "One of fig7a..fig7c, fig8a..fig8c, fig9a..fig9c, figf (fault \
             sweep), figs (s-MP split sweep), figpf (PathFinder \
             iteration-cap sweep), figrec (fault-event recovery sweep), \
             figserve (online-serving arrival-rate sweep), figpareto \
             (Pareto simulated-cycle sweep), or all.")
  in
  let trials_t =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "trials" ]
          ~doc:"Monte-Carlo trials per point (default: MANROUTE_TRIALS or 150).")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSV files to DIR.")
  in
  let jobs_t =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "j"; "jobs" ]
          ~doc:
            "Worker domains for the Monte-Carlo campaign (default: \
             MANROUTE_JOBS or the core count). Results are bit-identical \
             for any value.")
  in
  let checkpoint_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Append each completed row to PATH and, on a re-run, resume \
             from the rows already there (bit-identical to an \
             uninterrupted run).")
  in
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a span trace of the campaign (campaign > row > trial \
             > heuristic) and write it to FILE as Chrome trace-event JSON \
             — load it in chrome://tracing or Perfetto. Default: \
             MANROUTE_TRACE when set. Tracing never changes the \
             statistics.")
  in
  let progress_t =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Repaint a live progress line (rows, trials, errors, ETA) on \
             stderr; resumed checkpoint rows are credited instantly.")
  in
  let audit_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"DIR"
          ~doc:
            "Append one JSON audit record per noteworthy trial (each \
             row's worst-power trial, every errored trial, every \
             traffic-shedding trial) to DIR/<figure>-audit.jsonl — \
             per-heuristic reports, engine annotations and the full probe \
             decomposition of the best solution. Byte-identical for every \
             $(b,--jobs) value.")
  in
  let run id trials csv seed jobs checkpoint trace progress audit () =
    let figures = match id with None -> Harness.Figure.all | Some f -> [ f ] in
    (match checkpoint with
    | Some path when not (Sys.file_exists (Filename.dirname path)) ->
        fail "checkpoint directory %s does not exist" (Filename.dirname path)
    | _ -> ());
    (* Create the CSV directory and open each figure's file now, as
       [--trace] does its file: an unwritable destination fails before
       the first trial. *)
    Option.iter
      (fun dir ->
        Harness.Audit.mkdir_p dir;
        List.iter
          (fun (f : Harness.Figure.t) ->
            close_out (open_out (Filename.concat dir (f.id ^ ".csv"))))
          figures)
      csv;
    let acc = Harness.Summary.create () in
    Harness.Telemetry.tracing (Harness.Telemetry.trace_file ?cli:trace ())
    @@ fun () ->
    List.iter
      (fun figure ->
        let progress =
          if not progress then None
          else
            let trials =
              match trials with
              | Some t -> t
              | None -> Harness.Runner.default_trials ()
            in
            let rows = List.length figure.Harness.Figure.xs in
            Some
              (Harness.Telemetry.Progress.create
                 ~label:figure.Harness.Figure.id ~rows ~total:(rows * trials)
                 ())
        in
        let r =
          Harness.Runner.run ?trials ?jobs ~seed ~summary:acc ?checkpoint
            ?progress ?audit figure
        in
        Option.iter Harness.Telemetry.Progress.finish progress;
        Format.printf "%a@." Harness.Render.pp_result r;
        match csv with
        | Some dir ->
            let path = Harness.Render.write_csv ~dir r in
            Format.printf "csv: %s@.@." path
        | None -> Format.printf "@.")
      figures;
    Format.printf "%a@." Harness.Summary.pp (Harness.Summary.finalize acc)
  in
  command "figure" ~doc:"Reproduce a simulation figure of the paper"
    Term.(
      const run $ id_t $ trials_t $ csv_t $ seed_t $ jobs_t $ checkpoint_t
      $ trace_t $ progress_t $ audit_t)

(* ---------------- pareto ---------------- *)

let pareto_cmd =
  let trials_t =
    Arg.(
      value & opt pos_int_conv 8
      & info [ "trials" ] ~doc:"Random workloads to explore (default 8).")
  in
  let jobs_t =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "j"; "jobs" ]
          ~doc:
            "Worker domains (default: MANROUTE_JOBS or the core count). \
             Output is byte-identical for any value.")
  in
  let cycles_t =
    Arg.(
      value
      & opt pos_int_conv 2000
      & info [ "sim-cycles" ] ~docv:"N"
          ~doc:"Measured-cycle budget per simulation (default 2000).")
  in
  let tolerance_t =
    Arg.(
      value
      & opt nonneg_float_conv 0.08
      & info [ "sim-tolerance" ] ~docv:"T"
          ~doc:
            "Early-exit tolerance for the warmup-convergence detector \
             (default 0.08); 0 disables early exit and burns the full \
             budget.")
  in
  let kills_t =
    Arg.(
      value
      & opt nonneg_int_conv 2
      & info [ "kills" ] ~docv:"N"
          ~doc:
            "Link kills for the fault-degradation slope axis (default 2); \
             0 pins the slope objective to 0.")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:
            "Also write every measured point as CSV \
             (trial,name,power,p50,p95,slope,front) to PATH, floats as \
             %.17g (bit round-trips).")
  in
  (* The explored design points: the paper's six single-path heuristics
     plus parameterized engine points (path budget s, negotiation cap,
     survived events) and continuous-frequency policy variants — the
     latter route under [kim_horowitz_continuous] but are scored under
     the session model, so the axes stay comparable. *)
  let design_points model =
    let continuous (h : Routing.Heuristic.t) =
      {
        h with
        Routing.Heuristic.name = h.Routing.Heuristic.name ^ "/C";
        run =
          (fun ?fault _model mesh comms ->
            h.Routing.Heuristic.run ?fault Power.Model.kim_horowitz_continuous
              mesh comms);
      }
    in
    let variants =
      if model == Power.Model.kim_horowitz_continuous then []
      else
        List.filter_map
          (fun (h : Routing.Heuristic.t) ->
            if h.Routing.Heuristic.name = "XYI" || h.Routing.Heuristic.name = "PR"
            then Some (continuous h)
            else None)
          Routing.Heuristic.all
    in
    Routing.Heuristic.all @ variants
    @ [
        Optim.Smp.heuristic ~s:2 ();
        Optim.Smp.heuristic ~s:4 ();
        Optim.Pathfinder.heuristic ~iterations:8 ();
        Optim.Recover.heuristic ~events:4 ();
      ]
  in
  let run mesh model seed n weight trials jobs cycles tolerance kills csv () =
    (* The simulator adds its default warmup, cycles/5, to the budget and
       rejects a total past max_int; a point that raises scores as
       infeasible, so such a budget is refused here, before any trial. *)
    if cycles > max_int - (cycles / 5) then
      fail "--sim-cycles %d: the budget plus its warmup overflows" cycles;
    (* Opened first, so an unwritable path fails before the exploration. *)
    let csv_out = Option.map (fun path -> (path, open_out path)) csv in
    let points = design_points model in
    let budget =
      {
        Optim.Pareto.cycles;
        tolerance = (if tolerance = 0. then None else Some tolerance);
        warmup = None;
      }
    in
    Format.printf
      "pareto exploration: %d trials, %d comms on %a, budget %d cycles%s, %d \
       kills, %d design points@."
      trials n Noc.Mesh.pp mesh cycles
      (if tolerance = 0. then "" else Printf.sprintf " (tolerance %g)" tolerance)
      kills (List.length points);
    (* One trial = one workload through every design point. Each trial is
       keyed independently ([of_key]), evaluated on whatever worker domain
       picks it up (the simulator arena is per-domain), and folded in
       index order — output is byte-identical for every --jobs value. *)
    let eval_trial t =
      let rng =
        Traffic.Rng.of_key "pareto" [ Int64.of_int seed; Int64.of_int t ]
      in
      let comms = Traffic.Workload.uniform rng mesh ~n ~weight in
      let fault =
        if kills = 0 then None
        else
          Some
            (Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills mesh)
      in
      let arena = Sim.Network.Arena.domain () in
      List.filter_map
        (fun (h : Routing.Heuristic.t) ->
          match
            let solution = h.Routing.Heuristic.run model mesh comms in
            let report = Routing.Evaluate.solution model solution in
            Optim.Pareto.measure ~arena ~budget ?fault ~kills model ~report
              solution
          with
          | Some obj -> Some { Optim.Pareto.pt_name = h.name; pt_obj = obj }
          | None -> None
          | exception _ -> None)
        points
    in
    let results = Harness.Pool.map_result ?jobs trials eval_trial in
    let csv_buf = Buffer.create 1024 in
    Buffer.add_string csv_buf "trial,name,power,p50,p95,slope,front\n";
    let all_points = ref [] in
    Array.iteri
      (fun t result ->
        match result with
        | Error msg -> Format.printf "trial %d: error: %s@." t msg
        | Ok pts ->
            let front = Optim.Pareto.front pts in
            let on_front (p : Optim.Pareto.point) =
              List.exists
                (fun (q : Optim.Pareto.point) -> q.pt_name = p.pt_name)
                front
            in
            all_points := List.rev_append pts !all_points;
            Format.printf "trial %d (%d feasible points):@." t
              (List.length pts);
            List.iter
              (fun (p : Optim.Pareto.point) ->
                Format.printf "  %-6s %a%s@." p.pt_name
                  Optim.Pareto.pp_objectives p.pt_obj
                  (if on_front p then "  [front]" else "");
                Buffer.add_string csv_buf
                  (Printf.sprintf "%d,%s,%.17g,%.17g,%.17g,%.17g,%d\n" t
                     p.pt_name p.pt_obj.Optim.Pareto.power p.pt_obj.p50
                     p.pt_obj.p95 p.pt_obj.slope
                     (if on_front p then 1 else 0)))
              pts)
      results;
    let merged = Optim.Pareto.front (List.rev !all_points) in
    Format.printf "@.merged pareto front (%d non-dominated points over %d \
                   trials):@."
      (List.length merged) trials;
    List.iter
      (fun p -> Format.printf "  %a@." Optim.Pareto.pp_point p)
      merged;
    Option.iter
      (fun (path, oc) ->
        output_string oc (Buffer.contents csv_buf);
        close_out oc;
        Format.printf "csv: %s@." path)
      csv_out
  in
  command "pareto"
    ~doc:
      "Explore the power x latency x resilience design space: every design \
       point scored on model power, simulated p50/p95 latency and the \
       fault-degradation slope, with per-trial and merged non-dominated \
       fronts"
    Term.(
      const run $ mesh_t $ model_t $ seed_t $ n_t $ weight_t $ trials_t
      $ jobs_t $ cycles_t $ tolerance_t $ kills_t $ csv_t)

(* ---------------- inspect ---------------- *)

let inspect_cmd =
  let heuristic_t =
    heuristic_t ~keyword:"best"
      ~doc:
        "Routing policy to probe: $(b,best) (cheapest feasible of the \
         paper's six; falls back to the least-overloaded attempt when none \
         is feasible) or any name the $(b,route) command accepts (XY, SG, \
         ..., smp4, pf, rec8, ...)."
  in
  let trial_t =
    Arg.(
      value
      & opt nonneg_int_conv 0
      & info [ "trial" ] ~docv:"N"
          ~doc:
            "Skip the first N workload draws of the seed's stream and \
             inspect the (N+1)-th — the same sequence a sequential \
             experiment draws from one generator, so pinned bench \
             instances (E22/E23's seed 313) can be replayed by index.")
  in
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also write the full probe decomposition (per-link grid, \
             per-communication attribution, blame sets) as a \
             manroute-inspect/1 JSON artifact to PATH.")
  in
  let top_t =
    Arg.(
      value & opt pos_int_conv 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Communications to list in the attribution table (default 5).")
  in
  let run mesh model seed n weight file heuristic trial kill json top () =
    let mesh, comms = load_instance ~skip:trial mesh seed n weight file in
    Format.printf "%d communications on %a, %a (seed %d, trial %d)@."
      (List.length comms) Noc.Mesh.pp mesh Power.Model.pp model seed trial;
    let fault = kill_fault seed kill mesh in
    let heuristics =
      match heuristic with None -> Routing.Heuristic.all | Some h -> [ h ]
    in
    (* The campaign's attempt step, heuristic by heuristic, so the
       engines' notes (negotiation, recovery timeline) print next to
       the cell that produced them. *)
    let attempts =
      List.map (Harness.Runner.attempt ?fault model mesh comms) heuristics
    in
    List.iter
      (fun (a : Harness.Runner.attempt) ->
        let name = a.heuristic.Routing.Heuristic.name in
        (match a.outcome with
        | Ok o ->
            Format.printf "%-5s %a@." name Routing.Evaluate.pp_report
              o.report
        | Error m -> Format.printf "%-5s error: %s@." name m);
        match a.note with
        | Some (Optim.Pathfinder.Negotiation n) ->
            Format.printf
              "      negotiation: %d iterations, %d rips, %s@."
              n.a_iterations n.a_rips
              (if n.a_kept then "result kept" else "fell back to base")
        | Some (Optim.Recover.Reports reports) ->
            List.iteri
              (fun i (r : Optim.Recover.report) ->
                Format.printf
                  "      event %2d: %-28s rung %d | live %d | shed %d@."
                  (i + 1)
                  (Format.asprintf "%a" Noc.Fault.Schedule.pp_event
                     r.Optim.Recover.event)
                  r.rung r.live
                  (List.length r.shed_now))
              reports
        | _ -> ())
      attempts;
    let outcomes =
      List.filter_map
        (fun (a : Harness.Runner.attempt) -> Result.to_option a.outcome)
        attempts
    in
    let chosen =
      match Routing.Best.best_of outcomes with
      | Some o -> Some (o, "best feasible")
      | None ->
          (* Probing an infeasible attempt is the point when nothing is
             feasible: the blame sets say which links to negotiate
             away. Pick the attempt closest to feasibility. *)
          List.fold_left
            (fun acc (o : Routing.Best.outcome) ->
              match acc with
              | Some ((b : Routing.Best.outcome), _)
                when List.length b.report.Routing.Evaluate.overloaded
                     <= List.length o.report.Routing.Evaluate.overloaded
                -> acc
              | _ -> Some (o, "least overloaded; no feasible routing"))
            None outcomes
    in
    (match chosen with
    | None -> fail "every heuristic errored"
    | Some (o, label) ->
        let probe = Routing.Probe.solution ?fault model o.solution in
        Format.printf "@.probe of %s (%s)@.%a@."
          o.heuristic.Routing.Heuristic.name label Routing.Probe.pp probe;
        Format.printf "@.link loads:@.%s"
          (Harness.Render.heatmap ~capacity:model.Power.Model.capacity
             (Routing.Solution.loads ?fault o.solution));
        Format.printf "@.link power:@.%s"
          (Harness.Render.power_heatmap probe);
        let rows =
          List.sort
            (fun (a : Routing.Probe.comm_row) (b : Routing.Probe.comm_row) ->
              compare b.attributed a.attributed)
            probe.Routing.Probe.comms
        in
        Format.printf "@.top communications by attributed power:@.";
        List.iteri
          (fun i (c : Routing.Probe.comm_row) ->
            if i < top then
              Format.printf
                "  #%-3d %s->%s %7.1f Mb/s | %9.2f mW over %d links%s@."
                c.comm.Traffic.Communication.id
                (Noc.Coord.to_string c.comm.Traffic.Communication.src)
                (Noc.Coord.to_string c.comm.Traffic.Communication.snk)
                c.comm.Traffic.Communication.rate c.attributed
                (List.length c.links)
                (if c.convicted = [] then ""
                 else
                   Printf.sprintf " | convicted on %s"
                     (String.concat ","
                        (List.map
                           (fun id -> "#" ^ string_of_int id)
                           c.convicted))))
          rows;
        match json with
        | None -> ()
        | Some path ->
            let open Harness.Audit.Json in
            Harness.Audit.write_inspect_file ~path
              ~meta:
                [
                  ("mesh", Str (Format.asprintf "%a" Noc.Mesh.pp mesh));
                  ("model", Str (Format.asprintf "%a" Power.Model.pp model));
                  ("seed", Int seed);
                  ("trial", Int trial);
                  ("n", Int (List.length comms));
                  ("kill", Int kill);
                  ( "heuristic",
                    Str o.heuristic.Routing.Heuristic.name );
                ]
              probe;
            Format.printf "@.json: %s@." path)
  in
  command "inspect"
    ~doc:
      "Decompose a routing: per-link power grid, per-communication \
       attribution, overload blame"
    Term.(
      const run $ mesh_t $ model_t $ seed_t $ n_t $ weight_t $ file_t
      $ heuristic_t $ trial_t $ kill_t $ json_t $ top_t)

(* ---------------- recover ---------------- *)

let recover_cmd =
  let events_t =
    Arg.(
      value
      & opt pos_int_conv Optim.Recover.default_events
      & info [ "events" ] ~docv:"N"
          ~doc:
            "Length of the fault-event schedule to survive (default 8; \
             must be a positive integer).")
  in
  let kill_t =
    Arg.(
      value
      & opt nonneg_int_conv 0
      & info [ "kill" ] ~docv:"N"
          ~doc:
            "Kill N random links (connectivity-preserving, seeded from \
             $(b,--seed)) before the initial routing; the schedule then \
             evolves that damaged scenario.")
  in
  let budget_t =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Per-event negotiation budget (total rip-up sweeps across the \
             neighborhood and global rungs; default: their combined caps). \
             With 0 the ladder jumps straight from local repair to \
             shedding.")
  in
  let heuristic_t =
    heuristic_t ~keyword:"best"
      ~doc:
        "Initial routing policy: $(b,best) (cheapest feasible of the \
         paper's six) or any name the $(b,route) command accepts."
  in
  let run mesh model seed n weight file events kill budget heuristic () =
    let mesh, comms = load_instance mesh seed n weight file in
    let rng = Traffic.Rng.of_key "cli-recover" [ Int64.of_int seed ] in
    let fault =
      if kill = 0 then None
      else begin
        let f =
          Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:kill
            mesh
        in
        Format.printf "initial damage: %a@." Noc.Fault.pp f;
        Some f
      end
    in
    let solution =
      match heuristic with
      | Some h -> h.Routing.Heuristic.run ?fault model mesh comms
      | None -> (
          match Routing.Best.route ?fault model mesh comms with
          | Some o -> o.Routing.Best.solution
          | None ->
              fail
                "no heuristic routes the instance feasibly; pick one with \
                 --heuristic to start from its best effort")
    in
    let schedule =
      Noc.Fault.Schedule.random ?init:fault
        ~choose:(Traffic.Rng.int rng) ~events mesh
    in
    Format.printf
      "%d communications on %a, %a; surviving %d events@."
      (List.length comms) Noc.Mesh.pp mesh Power.Model.pp model events;
    let t, reports = Optim.Recover.run ?fault ?budget model solution schedule in
    let total = List.length comms in
    List.iteri
      (fun i (r : Optim.Recover.report) ->
        Format.printf
          "event %2d: %-28s rung %d | live %d/%d | power %8.1f mW \
           (%+.1f)@."
          (i + 1)
          (Format.asprintf "%a" Noc.Fault.Schedule.pp_event
             r.Optim.Recover.event)
          r.rung r.live total r.power_after
          (r.power_after -. r.power_before);
        List.iter
          (fun (s : Optim.Recover.shed) ->
            Format.printf "          shed %a (%a)@."
              Traffic.Communication.pp s.Optim.Recover.comm
              Optim.Recover.pp_reason s.Optim.Recover.reason)
          r.shed_now;
        List.iter
          (fun c ->
            Format.printf "          readmitted %a@."
              Traffic.Communication.pp c)
          r.readmitted)
      reports;
    let final = Optim.Recover.solution t in
    let report =
      Routing.Evaluate.solution ~fault:(Optim.Recover.fault t) model final
    in
    let live = List.length (Routing.Solution.routes final) in
    Format.printf "final: %d/%d live (%.1f%% survival), %a@." live total
      (if total = 0 then 100.
       else 100. *. float_of_int live /. float_of_int total)
      Routing.Evaluate.pp_report report;
    List.iter
      (fun (s : Optim.Recover.shed) ->
        Format.printf "  still shed: %a (%a)@." Traffic.Communication.pp
          s.Optim.Recover.comm Optim.Recover.pp_reason
          s.Optim.Recover.reason)
      (Optim.Recover.shed t)
  in
  command "recover"
    ~doc:"Survive a live fault-event schedule with incremental repair"
    Term.(
      const run $ mesh_t $ model_t $ seed_t $ n_t $ weight_t $ file_t
      $ events_t $ kill_t $ budget_t $ heuristic_t)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let rate_t =
    Arg.(
      value
      & opt pos_float_conv Optim.Online.default_rate
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Mean arrival rate in communications per unit holding time — \
             the steady-state concurrency the service carries (default 8; \
             must be positive).")
  in
  let events_t =
    Arg.(
      value
      & opt nonneg_int_conv Optim.Online.default_churn
      & info [ "events" ] ~docv:"N"
          ~doc:
            "Number of churn arrivals to stream through the service on top \
             of the resident workload (default 40; each brings a matching \
             departure, so the stream fully drains).")
  in
  let idle_epochs_t =
    Arg.(
      value
      & opt pos_int_conv Optim.Online.default_idle_epochs
      & info [ "idle-epochs" ] ~docv:"K"
          ~doc:
            "Switch-off hysteresis: a link sleeps after K consecutive \
             events at zero occupancy (default 2; must be positive).")
  in
  let wake_penalty_t =
    Arg.(
      value
      & opt (some nonneg_float_conv) None
      & info [ "wake-penalty" ] ~docv:"MW"
          ~doc:
            "One-shot power charge when a sleeping link wakes (default: \
             the model's per-link leakage; must be non-negative).")
  in
  let profile_t =
    Arg.(
      value
      & opt (enum Traffic.Trace.profiles) Traffic.Trace.Poisson
      & info [ "profile" ]
          ~doc:
            "Churn arrival process: $(b,poisson), $(b,diurnal), $(b,burst) \
             or $(b,hotspot).")
  in
  let no_sleep_t =
    Arg.(
      value & flag
      & info [ "no-sleep" ]
          ~doc:
            "Disable idle-link switch-off: idle links keep paying leakage \
             (the always-awake baseline the saved column is measured \
             against).")
  in
  let run mesh model seed n weight file rate events idle_epochs wake_penalty
      profile no_sleep () =
    let mesh, comms = load_instance mesh seed n weight file in
    (* A problem file may hold a one-core mesh, which has no churn pairs. *)
    if events > 0 && Noc.Mesh.num_cores mesh < 2 then
      fail "churn --events needs a mesh of two or more cores";
    let rng = Traffic.Rng.of_key "cli-serve" [ Int64.of_int seed ] in
    let resident = Traffic.Trace.persistent rng ~rate comms in
    let id_base =
      1
      + List.fold_left
          (fun m (c : Traffic.Communication.t) -> max m c.id)
          (-1) comms
    in
    let churn =
      Traffic.Trace.generate ~id_base rng mesh ~profile ~arrivals:events
        ~rate ~weight
    in
    let trace = Traffic.Trace.merge resident churn in
    let t =
      Optim.Online.create ?wake_penalty ~idle_epochs ~sleep:(not no_sleep)
        model mesh
    in
    Format.printf
      "serving %d resident + %d churn communications on %a, %a (%a \
       arrivals at rate %g, switch-off %s)@."
      (List.length comms) events Noc.Mesh.pp mesh Power.Model.pp model
      Traffic.Trace.pp_profile profile rate
      (if no_sleep then "off" else "on");
    let latencies = ref [] in
    let ops =
      List.map
        (fun ev ->
          let t0 = Harness.Runner.now_s () in
          let op = Optim.Online.step t ev in
          latencies :=
            ((Harness.Runner.now_s () -. t0) *. 1e3) :: !latencies;
          op)
        trace
    in
    List.iter
      (fun (op : Optim.Online.op) ->
        Format.printf
          "event %3d at %6.2f: %-12s rung %d | live %2d | power %8.1f mW \
           (dyn %.1f, leak %.1f, idle %.1f, saved %.1f)%s@."
          op.seq op.time
          (match op.kind with
          | Traffic.Trace.Arrive c ->
              Printf.sprintf "arrive %d%s" c.Traffic.Communication.id
                (if op.admitted then "" else " SHED")
          | Traffic.Trace.Depart id -> Printf.sprintf "depart %d" id)
          op.rung op.live
          (Optim.Online.split_total op.power)
          op.power.dynamic op.power.active_leak op.power.idle_leak
          op.power.saved_leak
          (match (op.wakes, op.sleeps) with
          | 0, 0 -> ""
          | w, s -> Printf.sprintf " | wakes %d sleeps %d" w s);
        List.iter
          (fun (sh : Optim.Online.shed) ->
            Format.printf "          shed %a (%a)@."
              Traffic.Communication.pp sh.Optim.Online.comm
              Optim.Recover.pp_reason sh.Optim.Online.reason)
          op.shed_now;
        List.iter
          (fun c ->
            Format.printf "          readmitted %a@."
              Traffic.Communication.pp c)
          op.readmitted)
      ops;
    let s = Optim.Online.session t in
    let p50, p95 =
      Harness.Summary.quantiles (Array.of_list (List.rev !latencies))
    in
    Format.printf
      "served %d events (%d arrivals, %d departures): %d admitted, %d \
       shed, %d readmitted | peak live %d, final live %d, rung max %d@."
      s.ops s.s_arrivals s.s_departures s.s_admitted s.s_shed
      s.s_readmitted s.peak_live s.final_live s.rung_max;
    Format.printf
      "power over time: %.1f mW mean (always-awake %.1f mW, saved \
       %.1f%%) | %d wakes, %d sleeps@."
      s.mean_power s.mean_power_nosleep
      (100. *. s.saved_ratio)
      s.s_wakes s.s_sleeps;
    Format.printf
      "latency: p50 %.3f ms, p95 %.3f ms per event (work proxy p50 \
       %.0f, p95 %.0f delta evals)@."
      p50 p95 s.p50_work s.p95_work;
    Format.printf "final: %a@." Routing.Evaluate.pp_report s.final
  in
  command "serve"
    ~doc:"Serve a streaming arrival/departure trace with idle-link switch-off"
    Term.(
      const run $ mesh_t $ model_t $ seed_t $ n_t $ weight_t $ file_t
      $ rate_t $ events_t $ idle_epochs_t $ wake_penalty_t $ profile_t
      $ no_sleep_t)

(* ---------------- pattern ---------------- *)

let pattern_cmd =
  let pattern_t =
    Arg.(
      required
      & pos 0
          (some
             (find_conv ~what:"pattern" Traffic.Patterns.find
                Traffic.Patterns.name))
          None
      & info [] ~docv:"PATTERN"
          ~doc:
            "One of transpose, bit-complement, bit-reverse, shuffle, \
             tornado, neighbor.")
  in
  let rate_t =
    Arg.(
      value
      & opt pos_float_conv 450.
      & info [ "rate" ] ~doc:"Per-flow bandwidth in Mb/s (must be positive).")
  in
  let heatmap_t =
    Arg.(value & flag & info [ "heatmap" ] ~doc:"Print load heatmaps.")
  in
  let run mesh model pattern rate heatmap () =
    if not (Traffic.Patterns.is_applicable pattern mesh) then
      fail "%s does not apply to %a" (Traffic.Patterns.name pattern)
        Noc.Mesh.pp mesh;
    let comms = Traffic.Patterns.communications pattern ~rate mesh in
    Format.printf "%s on %a: %d flows at %g Mb/s@."
      (Traffic.Patterns.name pattern)
      Noc.Mesh.pp mesh (List.length comms) rate;
    List.iter
      (fun (o : Routing.Best.outcome) ->
        Format.printf "  %-4s %a@." o.heuristic.name
          Routing.Evaluate.pp_report o.report;
        if heatmap && o.report.Routing.Evaluate.feasible then
          print_string
            (Harness.Render.heatmap ~capacity:model.Power.Model.capacity
               (Routing.Solution.loads o.solution)))
      (Routing.Best.run_all model mesh comms)
  in
  command "pattern" ~doc:"Route a classical NoC traffic pattern"
    Term.(const run $ mesh_t $ model_t $ pattern_t $ rate_t $ heatmap_t)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let ids_t =
    Arg.(
      non_empty
      & pos_all
          (keyword_conv ~keyword:"all" ~what:"experiment"
             Harness.Experiment.find (fun e -> e.Harness.Experiment.id))
          []
      & info [] ~docv:"ID"
          ~doc:
            "Experiment ids (E1 ... E27; E6-E9 is one entry), or $(b,all) \
             (every entry, then a closing done. line). Selected entries \
             run in catalogue order; the first failed self-check ends the \
             run with one error line and exit 1.")
  in
  let run ids () =
    let everything = List.mem None ids in
    let wanted =
      List.filter_map (Option.map (fun (e : Harness.Experiment.t) -> e.id)) ids
    in
    let entries =
      List.filter
        (fun (e : Harness.Experiment.t) -> everything || List.mem e.id wanted)
        Harness.Experiment.all
    in
    Format.printf "manroute reproduction harness (trials/point: %d, jobs: %d)@."
      (Harness.Runner.default_trials ())
      (Harness.Pool.default_jobs ());
    let failed =
      Harness.Telemetry.tracing (Harness.Telemetry.trace_file ()) @@ fun () ->
      List.find_map
        (fun (e : Harness.Experiment.t) ->
          match e.run () with
          | () -> None
          | exception Failure m -> Some (e.id, m))
        entries
    in
    Option.iter (fun (id, m) -> fail "%s: %s" id m) failed;
    (* The whole campaign closes the way it always has. *)
    if everything then Format.printf "@.done.@."
  in
  command "experiment"
    ~doc:
      "Print the reproduction tables of EXPERIMENTS.md. Trials per point, \
       worker domains and tracing come from MANROUTE_TRIALS, MANROUTE_JOBS \
       and MANROUTE_TRACE."
    Term.(const run $ ids_t)

(* ---------------- optimal ---------------- *)

let optimal_cmd =
  let max_nodes_t =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Node budget for the branch-and-bound (default 5000000); a \
             typed timeout is reported instead of an unbounded search.")
  in
  let run mesh model seed n weight file max_nodes () =
    let mesh, comms = load_instance mesh seed n weight file in
    Format.printf "exact 1-MP search on %a, %d communications@."
      Noc.Mesh.pp mesh (List.length comms);
    (match Optim.Exact.route ?max_nodes model mesh comms with
    | Optim.Exact.Optimal (_, p) ->
        Format.printf "optimal 1-MP power: %.3f mW@." p;
        List.iter
          (fun (o : Routing.Best.outcome) ->
            match o.report.Routing.Evaluate.feasible with
            | true ->
                (* An empty instance's optimum is 0, and so is every
                   routing's power: a gap of 0, not 0/0. *)
                Format.printf "  %-4s %.3f mW (gap %+.1f%%)@."
                  o.heuristic.name o.report.total_power
                  (if p = 0. then 0.
                   else 100. *. (o.report.total_power -. p) /. p)
            | false -> Format.printf "  %-4s failed@." o.heuristic.name)
          (Routing.Best.run_all model mesh comms)
    | Optim.Exact.Infeasible ->
        Format.printf "instance proved infeasible for 1-MP@."
    | Optim.Exact.Timeout { nodes; incumbent } ->
        (match incumbent with
        | Some (_, p) ->
            Format.printf
              "node budget exhausted after %d nodes; best incumbent \
               %.3f mW (not proved optimal)@."
              nodes p
        | None ->
            Format.printf
              "node budget exhausted after %d nodes with no feasible \
               incumbent; raise --max-nodes or shrink the instance@."
              nodes));
    let cont = Power.Model.kim_horowitz_continuous in
    Format.printf "max-MP dynamic lower bound (Frank-Wolfe): %.3f mW@."
      (Optim.Frank_wolfe.lower_bound cont mesh comms)
  in
  command "optimal" ~doc:"Exact 1-MP optimum vs heuristics on a small instance"
    Term.(
      const run $ mesh_t $ model_t $ seed_t $ n_t $ weight_t $ file_t
      $ max_nodes_t)

let () =
  let info =
    Cmd.info "manroute" ~version:"1.0.0"
      ~doc:"Power-aware Manhattan routing on chip multiprocessors"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            route_cmd; generate_cmd; figure_cmd; pareto_cmd; inspect_cmd;
            recover_cmd; serve_cmd; pattern_cmd; experiment_cmd; optimal_cmd;
          ]))
