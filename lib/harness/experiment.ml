(* The reproduction campaign: every table of EXPERIMENTS.md that one
   fixed-seed run prints, one catalogue entry per experiment. Each entry
   prints its own section header and table; the Monte-Carlo ones read
   MANROUTE_TRIALS and MANROUTE_JOBS through {!Runner}. *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* E1: Figure 2 *)

let fig2 () =
  section "E1 | Figure 2: routing-rule comparison (exact)";
  let pxy, p1, p2 = Theory.Example_fig2.powers () in
  Format.printf "P_XY = %g (paper: 128)@." pxy;
  Format.printf "P_1-MP = %g (paper: 56)@." p1;
  Format.printf "P_2-MP = %g (paper: 32)@." p2

(* E2: Lemma 1 *)

let lemma1 () =
  section "E2 | Lemma 1: Manhattan path counts";
  Format.printf " grid   binomial   recurrence@.";
  List.iter
    (fun p ->
      Format.printf "%2dx%-2d %9d %12d@." p p
        (Theory.Counting.grid_paths ~rows:p ~cols:p)
        (Theory.Counting.grid_paths_recurrence ~rows:p ~cols:p))
    [ 2; 3; 4; 6; 8; 10; 12 ]

(* E3: Theorem 1 *)

let thm1 () =
  section "E3 | Theorem 1: P_XY / P_maxMP on a square CMP (single src/dst)";
  let model = Power.Model.theory () in
  Format.printf "   p   construction ratio   ratio/p   FW-optimal ratio@.";
  List.iter
    (fun p' ->
      let r = Theory.Construction_thm1.ratio model ~p' ~total:1. in
      let fw_ratio =
        if p' <= 8 then begin
          let mesh = Noc.Mesh.square (2 * p') in
          let comms =
            [
              Traffic.Communication.make ~id:0
                ~src:(Noc.Coord.make ~row:1 ~col:1)
                ~snk:(Noc.Coord.make ~row:(2 * p') ~col:(2 * p'))
                ~rate:1.;
            ]
          in
          let fw = Optim.Frank_wolfe.solve ~iterations:300 model mesh comms in
          Printf.sprintf "%8.2f"
            (Theory.Construction_thm1.xy_power model ~p' ~total:1.
            /. fw.objective)
        end
        else "       -"
      in
      Format.printf "%4d %20.2f %9.3f   %s@." (2 * p') r
        (r /. float_of_int (2 * p'))
        fw_ratio)
    [ 1; 2; 4; 8; 16; 32 ]

(* E4: Lemma 2 / Theorem 2 *)

let lem2 () =
  section "E4 | Lemma 2: P_XY / P_YX = Theta(p^(alpha-1)), alpha = 3";
  let model = Power.Model.theory () in
  Format.printf "   p      ratio   ratio/p^2@.";
  List.iter
    (fun p' ->
      let r = Theory.Construction_lem2.ratio model ~p' in
      Format.printf "%4d %10.2f %11.4f@." (p' + 1) r
        (r /. float_of_int (p' * p')))
    [ 2; 4; 8; 16; 32; 64 ]

(* E5: Theorem 3 gadget *)

let np_gadget () =
  section "E5 | Theorem 3: NP-completeness gadget (2-Partition reduction)";
  List.iter
    (fun values ->
      let s = Theory.Np_gadget.min_s values in
      let g = Theory.Np_gadget.build ~s values in
      let solvable = Theory.Np_gadget.solvable g in
      let witness =
        match Theory.Np_gadget.find_partition values with
        | Some subset ->
            let sol = Theory.Np_gadget.solution_of_partition g subset in
            let r = Routing.Evaluate.solution (Theory.Np_gadget.model g) sol in
            Printf.sprintf "witness feasible=%b" r.Routing.Evaluate.feasible
        | None -> "no witness"
      in
      Format.printf "  {%s}: s=%d, 2x%d CMP, BW=%g -> solvable=%b, %s@."
        (String.concat ","
           (List.map string_of_int (Array.to_list values)))
        s
        (Noc.Mesh.cols g.Theory.Np_gadget.mesh)
        g.Theory.Np_gadget.bandwidth solvable witness)
    [ [| 3; 5; 4; 2 |]; [| 2; 2; 2; 2 |]; [| 1; 1; 8; 2 |]; [| 7; 3; 6; 4; 5; 5 |] ]

(* E6-E9: Figures 7, 8, 9 and the Section 6.4 summary, which folds every
   figure's instances. *)

let figures () =
  let acc = Summary.create () in
  List.iter
    (fun figure ->
      section
        (Printf.sprintf "E6-E8 | %s" figure.Figure.title);
      let r = Runner.run ~summary:acc figure in
      Format.printf "%a@." Render.pp_result r)
    Figure.all;
  section "E9 | Section 6.4 aggregate statistics";
  Format.printf "%a@." Summary.pp (Summary.finalize acc);
  Format.printf
    "(paper: success XY 15%%, XYI 46%%, PR 50%%, BEST 51%%; inverse power vs \
     XY: XYI 2.44, PR 2.57, BEST 2.95; static ~1/7)@."

(* E10: optimality gap *)

let optimal_gap () =
  section "E10 | Optimality gap on 4x4 instances (exact 1-MP vs heuristics)";
  let mesh = Noc.Mesh.square 4 in
  let model = Power.Model.kim_horowitz in
  let rng = Traffic.Rng.create 4242 in
  let stats = Hashtbl.create 8 in
  List.iter
    (fun (h : Routing.Heuristic.t) -> Hashtbl.replace stats h.name (0., 0))
    Routing.Heuristic.all;
  let solved = ref 0 in
  (* Simulated annealing as a slow near-optimal reference. *)
  let sa_gap = ref 0. and sa_n = ref 0 in
  for _ = 1 to 20 do
    let comms =
      Traffic.Workload.uniform rng mesh ~n:6
        ~weight:(Traffic.Workload.weight ~lo:400. ~hi:1600.)
    in
    match Optim.Exact.route model mesh comms with
    | Optim.Exact.Optimal (_, opt) ->
        incr solved;
        List.iter
          (fun (o : Routing.Best.outcome) ->
            if o.report.Routing.Evaluate.feasible then begin
              let s, c = Hashtbl.find stats o.heuristic.name in
              Hashtbl.replace stats o.heuristic.name
                (s +. ((o.report.total_power -. opt) /. opt), c + 1)
            end)
          (Routing.Best.run_all model mesh comms);
        let sa = Routing.Annealer.route ~iterations:20_000 mesh model comms in
        let r = Routing.Evaluate.solution model sa in
        if r.Routing.Evaluate.feasible then begin
          sa_gap := !sa_gap +. ((r.total_power -. opt) /. opt);
          incr sa_n
        end
    | _ -> ()
  done;
  Format.printf "instances solved exactly: %d/20@." !solved;
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let s, c = Hashtbl.find stats h.name in
      if c > 0 then
        Format.printf "  %-4s mean gap %.1f%% over %d feasible runs@." h.name
          (100. *. s /. float_of_int c)
          c)
    Routing.Heuristic.all;
  if !sa_n > 0 then
    Format.printf "  SA   mean gap %.1f%% over %d feasible runs (reference)@."
      (100. *. !sa_gap /. float_of_int !sa_n)
      !sa_n

(* E11: simulator validation *)

let sim_validation () =
  section "E11 | Wormhole-simulator validation of routed solutions";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let rng = Traffic.Rng.create 77 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:14
      ~weight:(Traffic.Workload.weight ~lo:300. ~hi:1300.)
  in
  List.iter
    (fun (o : Routing.Best.outcome) ->
      if o.report.Routing.Evaluate.feasible then begin
        let v = Sim.Validate.run ~cycles:12_000 model o.solution in
        Format.printf
          "  %-4s analytic feasible -> sim worst delivered fraction %.3f \
           (%s)@."
          o.heuristic.name v.worst_fraction
          (if v.all_delivered then "ok" else "UNDER-DELIVERY")
      end
      else Format.printf "  %-4s analytic infeasible (skipped)@." o.heuristic.name)
    (Routing.Best.run_all model mesh comms)

(* E12: ablations *)

let ablation_sorting () =
  section "E12a | Ablation: greedy processing order (SG, 400 instances)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  List.iter
    (fun (label, order) ->
      let rng = Traffic.Rng.create 31 in
      let succ = ref 0 and power = ref 0. and count = ref 0 in
      for _ = 1 to 400 do
        let comms = Traffic.Workload.uniform rng mesh ~n:30 ~weight:Traffic.Workload.small in
        let s = Routing.Simple_greedy.route ~order mesh comms in
        let r = Routing.Evaluate.solution model s in
        if r.Routing.Evaluate.feasible then begin
          incr succ;
          power := !power +. r.total_power;
          incr count
        end
      done;
      Format.printf "  %-24s success %5.1f%%  mean power %s@." label
        (100. *. float_of_int !succ /. 400.)
        (if !count = 0 then "-"
         else Printf.sprintf "%.0f mW" (!power /. float_of_int !count)))
    [
      ("decreasing weight (paper)", Traffic.Communication.By_rate_desc);
      ("decreasing length", Traffic.Communication.By_length_desc);
      ("decreasing weight/length", Traffic.Communication.By_rate_per_length_desc);
    ]

let ablation_frequencies () =
  section "E12b | Ablation: discrete vs continuous link frequencies";
  let mesh = Noc.Mesh.square 8 in
  List.iter
    (fun (label, model) ->
      let rng = Traffic.Rng.create 47 in
      let acc = ref 0. and succ = ref 0 in
      for _ = 1 to 300 do
        let comms = Traffic.Workload.uniform rng mesh ~n:25 ~weight:Traffic.Workload.mixed in
        match Routing.Best.route model mesh comms with
        | Some best ->
            incr succ;
            acc := !acc +. best.report.Routing.Evaluate.total_power
        | None -> ()
      done;
      Format.printf "  %-12s BEST success %5.1f%%, mean BEST power %s@." label
        (100. *. float_of_int !succ /. 300.)
        (if !succ = 0 then "-"
         else Printf.sprintf "%.0f mW" (!acc /. float_of_int !succ)))
    [
      ("discrete", Power.Model.kim_horowitz);
      ("continuous", Power.Model.kim_horowitz_continuous);
    ]

let ablation_leakage () =
  section "E12c | Ablation: P_leak / P0 ratio (Section 6.4 remark)";
  let mesh = Noc.Mesh.square 8 in
  List.iter
    (fun scale ->
      let model =
        Power.Model.make
          ~mode:(Power.Model.Discrete [| 1000.; 2500.; 3500. |])
          ~gbps_scale:1000. ~p_leak:(16.9 *. scale) ~p0:5.41 ~alpha:2.95
          ~capacity:3500. ()
      in
      let rng = Traffic.Rng.create 53 in
      let wins = Hashtbl.create 8 in
      List.iter
        (fun (h : Routing.Heuristic.t) -> Hashtbl.replace wins h.name 0)
        Routing.Heuristic.all;
      let static_frac = ref 0. and n_ok = ref 0 in
      for _ = 1 to 300 do
        let comms = Traffic.Workload.uniform rng mesh ~n:20 ~weight:Traffic.Workload.mixed in
        match Routing.Best.route model mesh comms with
        | Some best ->
            Hashtbl.replace wins best.heuristic.name
              (Hashtbl.find wins best.heuristic.name + 1);
            incr n_ok;
            static_frac :=
              !static_frac
              +. best.report.Routing.Evaluate.static_power
                 /. best.report.total_power
        | None -> ()
      done;
      let winners =
        List.filter_map
          (fun (h : Routing.Heuristic.t) ->
            let w = Hashtbl.find wins h.name in
            if w > 0 then Some (Printf.sprintf "%s:%d" h.name w) else None)
          Routing.Heuristic.all
      in
      Format.printf "  P_leak x%-4g static fraction %.2f, BEST wins: %s@."
        scale
        (if !n_ok = 0 then Float.nan
         else !static_frac /. float_of_int !n_ok)
        (String.concat " " winners))
    [ 0.; 0.25; 1.; 4. ]

let ablation_multipath () =
  section "E12d | Ablation: multi-path routing (paper future work)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let policies =
    [
      ("SG (1-MP)", fun comms -> Routing.Simple_greedy.route mesh comms);
      ( "SG split s=2",
        fun comms ->
          Routing.Multipath.route_split ~s:2 ~base:Routing.Heuristic.sg model
            mesh comms );
      ( "SG split s=4",
        fun comms ->
          Routing.Multipath.route_split ~s:4 ~base:Routing.Heuristic.sg model
            mesh comms );
      ("PR (1-MP)", fun comms -> Routing.Path_remover.route mesh comms);
      ( "PR-MP s=2",
        fun comms -> Routing.Path_remover.route_multipath ~s:2 mesh comms );
      ( "PR-MP s=4",
        fun comms -> Routing.Path_remover.route_multipath ~s:4 mesh comms );
    ]
  in
  List.iter
    (fun (label, solve) ->
      let rng = Traffic.Rng.create 61 in
      let succ = ref 0 and acc = ref 0. in
      for _ = 1 to 300 do
        let comms = Traffic.Workload.uniform rng mesh ~n:25 ~weight:Traffic.Workload.mixed in
        let r = Routing.Evaluate.solution model (solve comms) in
        if r.Routing.Evaluate.feasible then begin
          incr succ;
          acc := !acc +. r.total_power
        end
      done;
      Format.printf "  %-12s success %5.1f%%  mean power %s@." label
        (100. *. float_of_int !succ /. 300.)
        (if !succ = 0 then "-"
         else Printf.sprintf "%.0f mW" (!acc /. float_of_int !succ)))
    policies

let ablations () =
  ablation_sorting ();
  ablation_frequencies ();
  ablation_leakage ();
  ablation_multipath ()

(* E16: the XYI local search applied as a refinement pass on top of every
   heuristic — how much is left on the table after each policy? *)

let ablation_refinement () =
  section "E16 | Ablation: diversion refinement on top of each heuristic";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let rng = Traffic.Rng.create 83 in
      let base_succ = ref 0 and ref_succ = ref 0 in
      let gain = ref 0. and gain_n = ref 0 in
      for _ = 1 to 200 do
        let comms = Traffic.Workload.uniform rng mesh ~n:25 ~weight:Traffic.Workload.mixed in
        let base = h.run model mesh comms in
        let refined = Routing.Xy_improver.improve model base in
        let rb = Routing.Evaluate.solution model base
        and rr = Routing.Evaluate.solution model refined in
        if rb.Routing.Evaluate.feasible then incr base_succ;
        if rr.Routing.Evaluate.feasible then begin
          incr ref_succ;
          if rb.Routing.Evaluate.feasible then begin
            gain := !gain +. (1. -. (rr.total_power /. rb.total_power));
            incr gain_n
          end
        end
      done;
      Format.printf
        "  %-4s success %5.1f%% -> %5.1f%%; mean power saving %s@." h.name
        (100. *. float_of_int !base_succ /. 200.)
        (100. *. float_of_int !ref_succ /. 200.)
        (if !gain_n = 0 then "-"
         else Printf.sprintf "%.1f%%" (100. *. !gain /. float_of_int !gain_n)))
    Routing.Heuristic.all

(* E14: classical NoC traffic patterns — structured workloads the paper
   does not evaluate but any adopter of the library will throw at it. *)

let patterns_experiment () =
  section "E14 | Classical traffic patterns (8x8, per-flow rate in Mb/s)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  Format.printf
    "  pattern          rate   XY             BEST@.";
  List.iter
    (fun pattern ->
      if Traffic.Patterns.is_applicable pattern mesh then
        List.iter
          (fun rate ->
            let comms = Traffic.Patterns.communications pattern ~rate mesh in
            let xy =
              Routing.Evaluate.solution model (Routing.Xy.route mesh comms)
            in
            let xy_s =
              if xy.Routing.Evaluate.feasible then
                Printf.sprintf "%8.0f mW " xy.total_power
              else "    fail    "
            in
            let best_s =
              match Routing.Best.route model mesh comms with
              | Some b ->
                  Printf.sprintf "%8.0f mW (%s)"
                    b.report.Routing.Evaluate.total_power b.heuristic.name
              | None -> "    fail"
            in
            Format.printf "  %-15s %5.0f  %s  %s@."
              (Traffic.Patterns.name pattern)
              rate xy_s best_s)
          [ 450.; 700.; 1100. ])
    Traffic.Patterns.all;
  (* Hotspot: half the traffic converges on the center. *)
  let rng = Traffic.Rng.create 99 in
  let comms =
    Traffic.Patterns.hotspot rng mesh ~n:30
      ~hotspot:(Noc.Coord.make ~row:4 ~col:4)
      ~bias:0.5
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:800.)
  in
  (match Routing.Best.route model mesh comms with
  | Some b ->
      Format.printf "  hotspot(0.5)      -    -             %8.0f mW (%s)@."
        b.report.Routing.Evaluate.total_power b.heuristic.name
  | None -> Format.printf "  hotspot(0.5): no feasible routing@.")

(* E15: when every single-path heuristic fails, is the instance actually
   hopeless, or would path splitting (the paper's s-MP rules) save it?
   The Frank-Wolfe overload minimizer gives a constructive fractional
   certificate. *)

let splitting_rescue () =
  section "E15 | Splitting rescue rate on 1-MP-infeasible instances";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let rng = Traffic.Rng.create 271 in
  let trials = 150 in
  let best_failed = ref 0
  and fractional_ok = ref 0
  and prmp_ok = ref 0
  and split_ok = ref 0 in
  for _ = 1 to trials do
    let comms = Traffic.Workload.uniform rng mesh ~n:25 ~weight:Traffic.Workload.mixed in
    match Routing.Best.route model mesh comms with
    | Some _ -> ()
    | None ->
        incr best_failed;
        if Optim.Frank_wolfe.fractionally_feasible ~iterations:600 model mesh comms
        then incr fractional_ok;
        let feasible sol =
          (Routing.Evaluate.solution model sol).Routing.Evaluate.feasible
        in
        if feasible (Routing.Path_remover.route_multipath ~s:4 mesh comms)
        then incr prmp_ok;
        if
          feasible
            (Routing.Multipath.route_split ~s:4 ~base:Routing.Heuristic.sg
               model mesh comms)
        then incr split_ok
  done;
  Format.printf
    "  %d/%d instances defeat all six single-path heuristics; of those:@."
    !best_failed trials;
  if !best_failed > 0 then begin
    let pct x = 100. *. float_of_int x /. float_of_int !best_failed in
    Format.printf "    max-MP fractionally feasible (FW certificate): %.0f%%@."
      (pct !fractional_ok);
    Format.printf "    rescued by PR-MP (s=4):                        %.0f%%@."
      (pct !prmp_ok);
    Format.printf "    rescued by even 4-way splitting over SG:       %.0f%%@."
      (pct !split_ok)
  end

(* The instances E22 and E23 share (same seed, same draw order): at most
   40 draws of 25 mixed communications on the 8x8 CMP from seed 313, each
   with its BEST outcome and leakage-free Frank-Wolfe fractional lower
   bound. Prints the population line; returns the instances and how many
   of them defeat every single-path heuristic. *)

let seed313_instances mesh model =
  let rng = Traffic.Rng.create 313 in
  let trials = Int.min 40 (Runner.default_trials ()) in
  let pre =
    List.init trials (fun _ ->
        let comms =
          Traffic.Workload.uniform rng mesh ~n:25
            ~weight:Traffic.Workload.mixed
        in
        let best = Routing.Best.route model mesh comms in
        let fw_lb =
          Optim.Frank_wolfe.lower_bound ~iterations:300 model mesh comms
        in
        (comms, best, fw_lb))
  in
  let n_failed = List.length (List.filter (fun (_, b, _) -> b = None) pre) in
  Format.printf "  %d instances, %d defeat all six single-path heuristics@.@."
    trials n_failed;
  (pre, n_failed)

(* Whether a routing costs more than the instance's BEST one. *)
let worse_than best (r : Routing.Evaluate.report) =
  match best with
  | Some (b : Routing.Best.outcome) ->
      r.total_power > b.report.Routing.Evaluate.total_power +. 1e-6
  | None -> false

(* E22: the flow-guided s-MP engine — total power versus the path budget
   [s], against both lower bounds (each augmented by the solution's own
   leakage, since the relaxations drop the static term), plus the rescue
   rate on the instances every single-path heuristic loses. Means are
   over the instances feasible at that [s]; the never-worse guard makes
   every 1-MP-feasible instance feasible at every [s], so the common core
   of the per-row populations is identical and the power column is
   comparable down the table. The continuous-model column re-evaluates
   the same routing with continuous frequencies: its distance to 1.0 is
   the engine's true routing gap, the rest of the discrete column is the
   price of rounding link frequencies up to the next Kim–Horowitz
   level. *)

let smp_sweep () =
  section "E22 | Flow-guided s-MP: power vs path budget s (8x8, 25 mixed)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let pre, n_failed = seed313_instances mesh model in
  let pre =
    List.map
      (fun (comms, best, fw_lb) ->
        let diag = Routing.Multipath.diagonal_lower_bound model mesh comms in
        (comms, best, fw_lb, diag))
      pre
  in
  let trials = List.length pre in
  Format.printf "  %3s %11s %14s %15s %15s %14s %9s@." "s" "feasible"
    "mean power" "/(FW lb+leak)" "same, cont. f" "/(diag+leak)" "rescued";
  let row label solve =
    let feas = ref 0 and rescued = ref 0 and worse = ref 0 in
    let power_sum = ref 0. and n_feas_cmp = ref 0 in
    let r_fw = ref 0. and r_fw_cont = ref 0. and r_diag = ref 0. in
    List.iter
      (fun (comms, best, fw_lb, diag) ->
        let sol = solve comms in
        let r = Routing.Evaluate.solution model sol in
        if r.Routing.Evaluate.feasible then begin
          incr feas;
          if best = None then incr rescued;
          incr n_feas_cmp;
          power_sum := !power_sum +. r.total_power;
          r_fw := !r_fw +. (r.total_power /. (fw_lb +. r.static_power));
          let c =
            Routing.Evaluate.solution Power.Model.kim_horowitz_continuous sol
          in
          r_fw_cont :=
            !r_fw_cont
            +. c.Routing.Evaluate.total_power
               /. (fw_lb +. c.Routing.Evaluate.static_power);
          r_diag := !r_diag +. (r.total_power /. (diag +. r.static_power))
        end;
        if worse_than best r then incr worse)
      pre;
    let m = float_of_int (max 1 !n_feas_cmp) in
    Format.printf "  %3s %7d/%-3d %11.1f mW %14.3f %15.3f %15.3f %6d/%-3d%s@."
      label !feas trials (!power_sum /. m) (!r_fw /. m) (!r_fw_cont /. m)
      (!r_diag /. m) !rescued n_failed
      (if !worse > 0 then Printf.sprintf "  (%d WORSE than 1-MP!)" !worse
       else "")
  in
  List.iter
    (fun s ->
      row (string_of_int s) (fun comms -> Optim.Smp.engine ~s model mesh comms))
    [ 1; 2; 4; 8 ];
  (* The single-path competitor on the same instances: negotiated
     congestion never splits, so its row is directly comparable to s=1. *)
  row "pf" (fun comms -> fst (Optim.Pathfinder.engine model mesh comms))

(* E23: the negotiated-congestion engine — how many passes the
   rip-up-and-reroute negotiation needs. Same 40 instances as E22 (same
   seed, same draw order), so the "rescued" column is judged against the
   very instances the s-MP study pins. Each row caps the iterations;
   more passes monotonically improve the same instance (identical
   initial routing, more negotiation on top). The rips column is the
   ripped-and-rerouted communication count off {!Routing.Metrics}, and
   the gap column is total power over the leakage-augmented Frank-Wolfe
   fractional lower bound — the distance that remains to the best
   splitting could ever do. *)

let pf_sweep () =
  section
    "E23 | PathFinder: negotiated congestion vs iteration cap (8x8, 25 mixed)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let pre, n_failed = seed313_instances mesh model in
  let trials = List.length pre in
  Format.printf "  %4s %11s %14s %15s %9s %9s@." "cap" "feasible" "mean power"
    "/(FW lb+leak)" "rescued" "rips/inst";
  List.iter
    (fun cap ->
      let feas = ref 0 and rescued = ref 0 and worse = ref 0 in
      let power_sum = ref 0. and n_feas = ref 0 in
      let r_fw = ref 0. in
      let before = Routing.Metrics.snapshot () in
      List.iter
        (fun (comms, best, fw_lb) ->
          let sol, _ =
            Optim.Pathfinder.engine ~iterations:cap model mesh comms
          in
          let r = Routing.Evaluate.solution model sol in
          if r.Routing.Evaluate.feasible then begin
            incr feas;
            if best = None then incr rescued;
            incr n_feas;
            power_sum := !power_sum +. r.total_power;
            r_fw := !r_fw +. (r.total_power /. (fw_lb +. r.static_power))
          end;
          if worse_than best r then incr worse)
        pre;
      let rips =
        (Routing.Metrics.diff (Routing.Metrics.snapshot ()) before)
          .Routing.Metrics.pf_rips
      in
      let m = float_of_int (max 1 !n_feas) in
      Format.printf "  %4d %7d/%-3d %11.1f mW %14.3f %6d/%-3d %9.1f%s@." cap
        !feas trials (!power_sum /. m) (!r_fw /. m) !rescued n_failed
        (float_of_int rips /. float_of_int trials)
        (if !worse > 0 then Printf.sprintf "  (%d WORSE than BEST!)" !worse
         else ""))
    [ 1; 2; 4; 8; 16; 32 ]

(* E24: the live-recovery engine — how gracefully an already-routed
   instance degrades as fault events accumulate. Same instance family as
   E22/E23 (seed 313, 25 mixed communications on the 8x8 CMP); each row
   replays a longer deterministic schedule over the same per-instance
   generator key, so a row's event sequence is a prefix of the next
   row's and only the accumulated damage varies. Columns: mean survival
   ratio and live power after the last event, sheds per instance, the
   escalation-rung histogram over all events (rung 1 = untouched,
   5 = shedding), and negotiation passes per instance. *)

let recover_sweep () =
  section "E24 | Recovery: survival and power vs fault events (8x8, 25 mixed)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let rng = Traffic.Rng.create 313 in
  let trials = Int.min 25 (Runner.default_trials ()) in
  let pre =
    List.init trials (fun i ->
        let comms =
          Traffic.Workload.uniform rng mesh ~n:25
            ~weight:Traffic.Workload.mixed
        in
        (i, Routing.Best.route model mesh comms))
  in
  let routed = List.filter (fun (_, b) -> b <> None) pre in
  Format.printf
    "  %d instances, %d routed feasibly by BEST (the recovery baseline)@.@.  \
     %6s %9s %12s %10s %21s %11s@."
    trials (List.length routed) "events" "survival" "live power" "shed/inst"
    "rungs 1|2|3|4|5" "passes/inst";
  List.iter
    (fun events ->
      let surv = ref 0. and power = ref 0. in
      let sheds = ref 0 and passes = ref 0 in
      let rungs = Array.make 6 0 in
      List.iter
        (fun (i, best) ->
          match best with
          | None -> ()
          | Some (b : Routing.Best.outcome) ->
              let srng =
                Traffic.Rng.of_key "bench-recover"
                  [ Int64.of_int 313; Int64.of_int i ]
              in
              let schedule =
                Noc.Fault.Schedule.random
                  ~choose:(Traffic.Rng.int srng)
                  ~events mesh
              in
              let t, reports =
                Optim.Recover.run model b.Routing.Best.solution schedule
              in
              let last = List.nth reports (List.length reports - 1) in
              surv := !surv +. last.Optim.Recover.survival;
              power := !power +. last.Optim.Recover.power_after;
              sheds := !sheds + List.length (Optim.Recover.shed t);
              List.iter
                (fun (r : Optim.Recover.report) ->
                  rungs.(r.rung) <- rungs.(r.rung) + 1;
                  passes := !passes + r.Optim.Recover.passes)
                reports)
        routed;
      let m = float_of_int (max 1 (List.length routed)) in
      Format.printf "  %6d %8.1f%% %9.1f mW %10.2f %5d|%d|%d|%d|%-3d %11.1f@."
        events
        (100. *. !surv /. m)
        (!power /. m)
        (float_of_int !sheds /. m)
        rungs.(1) rungs.(2) rungs.(3) rungs.(4) rungs.(5)
        (float_of_int !passes /. m))
    [ 2; 4; 8; 16; 32 ]

(* E27: the online routing service — power over time vs arrival rate.
   Each instance (seed 717, 20 mixed communications on the 8x8 CMP) is
   served twice as the identical arrival/departure stream: once with
   idle-link switch-off and once always-awake. Sleeping never changes a
   routing decision, so the two runs admit the same routes and the
   switch-off run's always-awake column must bit-match the disabled
   run's mean power; the run that actually sleeps must then be strictly
   cheaper — both are asserted, loudly. Columns: mean power over time
   with switch-off, the always-awake baseline, the saved fraction, the
   p95 of the per-event work proxy, and sheds/sleeps per instance. *)

let serve_sweep () =
  section "E27 | Online serving: power over time vs arrival rate (8x8, 20 mixed)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let rng = Traffic.Rng.create 717 in
  let trials = Int.min 25 (Runner.default_trials ()) in
  let instances =
    List.init trials (fun _ ->
        Traffic.Workload.uniform rng mesh ~n:20 ~weight:Traffic.Workload.mixed)
  in
  Format.printf
    "  %d instances, each served as the same stream with switch-off on and \
     off@.@.  %6s %14s %14s %7s %10s %10s %12s@."
    trials "rate" "mean power" "always-awake" "saved" "p95 work" "shed/inst"
    "sleeps/inst";
  let ok = ref true in
  List.iter
    (fun rate ->
      let power = ref 0. and nosleep = ref 0. in
      let p95 = ref 0. and sheds = ref 0 and sleeps = ref 0 in
      List.iter
        (fun comms ->
          let session ?sleep () =
            Option.get (snd (Optim.Online.engine ~rate ?sleep model mesh comms))
          in
          let s = session () and s0 = session ~sleep:false () in
          (* Same stream, same admissions: the sleeping run's
             always-awake column is the disabled run's mean power. *)
          if s.Optim.Online.mean_power_nosleep <> s0.Optim.Online.mean_power
          then begin
            Format.printf
              "  MISMATCH at rate %g: always-awake %.6f vs disabled run \
               %.6f@."
              rate s.Optim.Online.mean_power_nosleep
              s0.Optim.Online.mean_power;
            ok := false
          end;
          if
            s.Optim.Online.s_sleeps > 0
            && not (s.Optim.Online.mean_power < s0.Optim.Online.mean_power)
          then begin
            Format.printf
              "  NOT CHEAPER at rate %g: switch-off %.6f vs always-awake \
               %.6f@."
              rate s.Optim.Online.mean_power s0.Optim.Online.mean_power;
            ok := false
          end;
          power := !power +. s.Optim.Online.mean_power;
          nosleep := !nosleep +. s0.Optim.Online.mean_power;
          p95 := !p95 +. s.Optim.Online.p95_work;
          sheds := !sheds + s.Optim.Online.s_shed;
          sleeps := !sleeps + s.Optim.Online.s_sleeps)
        instances;
      let m = float_of_int (max 1 trials) in
      let saved = 1. -. (!power /. Float.max 1e-9 !nosleep) in
      Format.printf
        "  %6g %11.1f mW %11.1f mW %6.1f%% %10.0f %10.2f %12.1f@." rate
        (!power /. m) (!nosleep /. m) (100. *. saved) (!p95 /. m)
        (float_of_int !sheds /. m)
        (float_of_int !sleeps /. m))
    [ 2.; 4.; 8.; 16. ];
  Format.printf "  switch-off strictly cheaper on every sleeping run: %s@."
    (if !ok then "yes" else "NO");
  if not !ok then failwith "switch-off self-check failed"

(* E13: the paper's open problem — single source/destination pair, how much
   can single-path routing gain, and how close is it to max-MP? *)

let open_problem () =
  section
    "E13 | Open problem: single src/dst pair, 1-MP vs max-MP (theory model)";
  let p = 8 in
  let mesh = Noc.Mesh.square p in
  let model = Power.Model.theory () in
  let src = Noc.Coord.make ~row:1 ~col:1
  and snk = Noc.Coord.make ~row:p ~col:p in
  Format.printf
    "  nc equal communications (1,1)->(%d,%d), total 1.0; entries are \
     P_XY / P_policy@."
    p p;
  Format.printf "  nc   best-1MP   PR-MP(s=8)   max-MP(FW)@.";
  List.iter
    (fun nc ->
      let rng = Traffic.Rng.create 5 in
      let comms =
        Traffic.Workload.single_pair rng ~src ~snk ~n:nc
          ~weight:
            (Traffic.Workload.weight
               ~lo:(1. /. float_of_int nc)
               ~hi:(1. /. float_of_int nc))
      in
      let p_xy =
        Routing.Evaluate.penalized model
          (Routing.Solution.loads (Routing.Xy.route mesh comms))
      in
      let dyn s =
        (Routing.Evaluate.solution model s).Routing.Evaluate.dynamic_power
      in
      let best_1mp =
        List.fold_left
          (fun acc (h : Routing.Heuristic.t) ->
            Float.min acc (dyn (h.run model mesh comms)))
          infinity Routing.Heuristic.manhattan
      in
      let pr_mp = dyn (Routing.Path_remover.route_multipath ~s:8 mesh comms) in
      let fw = (Optim.Frank_wolfe.solve ~iterations:300 model mesh comms).objective in
      Format.printf "  %2d %10.2f %12.2f %12.2f@." nc (p_xy /. best_1mp)
        (p_xy /. pr_mp) (p_xy /. fw))
    [ 1; 2; 4; 8; 16 ]

(* E17: scaling with the chip size — the paper fixes 8x8; here the mesh
   grows with communication density held constant (nc = cores / 2). *)

let mesh_scaling () =
  section "E17 | Scaling with mesh size (nc = cores/2, small weights)";
  let model = Power.Model.kim_horowitz in
  Format.printf
    "   p   nc   XY-succ  XYI-succ  PR-succ  BEST-succ   XYI-norm  PR-norm   ms/instance@.";
  List.iter
    (fun p ->
      let mesh = Noc.Mesh.square p in
      let n = Noc.Mesh.num_cores mesh / 2 in
      let trials = 60 in
      let rng = Traffic.Rng.create (1000 + p) in
      let succ = Hashtbl.create 8 and norm = Hashtbl.create 8 in
      List.iter
        (fun name ->
          Hashtbl.replace succ name 0;
          Hashtbl.replace norm name 0.)
        [ "XY"; "SG"; "IG"; "TB"; "XYI"; "PR"; "BEST" ];
      let t0 = Sys.time () in
      for _ = 1 to trials do
        let comms = Traffic.Workload.uniform rng mesh ~n ~weight:Traffic.Workload.small in
        let outcomes = Routing.Best.run_all model mesh comms in
        let best = Routing.Best.best_of outcomes in
        let best_power =
          Option.map
            (fun (o : Routing.Best.outcome) -> o.report.Routing.Evaluate.total_power)
            best
        in
        let record name (r : Routing.Evaluate.report) =
          if r.feasible then begin
            Hashtbl.replace succ name (Hashtbl.find succ name + 1);
            match best_power with
            | Some pb ->
                Hashtbl.replace norm name
                  (Hashtbl.find norm name +. (pb /. r.total_power))
            | None -> ()
          end
        in
        List.iter
          (fun (o : Routing.Best.outcome) -> record o.heuristic.name o.report)
          outcomes;
        Option.iter
          (fun (o : Routing.Best.outcome) -> record "BEST" o.report)
          best
      done;
      let elapsed = 1000. *. (Sys.time () -. t0) /. float_of_int trials in
      let pct name = 100. *. float_of_int (Hashtbl.find succ name) /. float_of_int trials in
      let nrm name = Hashtbl.find norm name /. float_of_int trials in
      Format.printf
        "  %2d %4d   %5.1f%%   %5.1f%%   %5.1f%%    %5.1f%%      %5.2f    %5.2f   %8.1f@."
        p n (pct "XY") (pct "XYI") (pct "PR") (pct "BEST") (nrm "XYI")
        (nrm "PR") elapsed)
    [ 4; 6; 8; 10; 12; 16 ]

(* E18: robustness of the Figure 8 cliff to the (unspecified) weight
   spread. The paper's sudden collapse "around 1750 Mb/s" happens once
   every weight exceeds BW/2; with a band of width w centred on the
   average, that is avg > 1750 + w/2 — so the cliff must appear for every
   width, shifted by half the width. Validates DESIGN.md assumption #1. *)

let weight_band_ablation () =
  section
    "E18 | Ablation: Fig. 8 cliff vs weight-band width (XYI | BEST failure %)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let avgs = [ 1500.; 1700.; 1900.; 2100.; 2300.; 2500. ] in
  Format.printf "  width |";
  List.iter (fun a -> Format.printf "   %6.0f" a) avgs;
  Format.printf "   (average weight, Mb/s)@.";
  List.iter
    (fun width ->
      Format.printf "  %5.0f |" width;
      List.iter
        (fun avg ->
          let rng = Traffic.Rng.create (int_of_float (width +. avg)) in
          let lo = Float.max 1. (avg -. (width /. 2.))
          and hi = avg +. (width /. 2.) in
          let weight = Traffic.Workload.weight ~lo ~hi in
          let xyi_fails = ref 0 and best_fails = ref 0 in
          let trials = 100 in
          for _ = 1 to trials do
            let comms = Traffic.Workload.uniform rng mesh ~n:10 ~weight in
            let outcomes = Routing.Best.run_all model mesh comms in
            if
              List.exists
                (fun (o : Routing.Best.outcome) ->
                  o.heuristic.name = "XYI"
                  && not o.report.Routing.Evaluate.feasible)
                outcomes
            then incr xyi_fails;
            if Routing.Best.best_of outcomes = None then incr best_fails
          done;
          Format.printf " %3d|%-3d"
            (100 * !xyi_fails / trials)
            (100 * !best_fails / trials))
        avgs;
      Format.printf "@.")
    [ 100.; 500.; 1000. ]

(* E21: the delta engine's reason to exist — candidate-path scoring
   throughput. A search loop asks, for each candidate path, "what would
   the full report be if I routed this?". The full evaluation answers by
   applying the path to a copy of the loads and rescanning every link
   from scratch; the delta engine applies it under a mark, reassembles
   the report from its maintained per-level counts in O(levels), and
   rolls back — O(path length) total. Both must agree bit-for-bit
   (checked on every candidate before timing). A second part isolates
   the per-link marginal-cost lookup, direct computation vs the
   memoized table. *)

let delta_bench () =
  section "E21 | Delta engine: candidate-path scoring, full vs delta";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let rng = Traffic.Rng.create 888 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:40 ~weight:Traffic.Workload.small
  in
  (* A realistic committed state: SG's own routing of the workload —
     feasible, as in the improvement loops where candidate scoring
     dominates. *)
  let loads = Routing.Solution.loads (Routing.Simple_greedy.route mesh comms) in
  let candidates =
    Array.of_list
      (List.concat_map
         (fun (c : Traffic.Communication.t) ->
           List.map
             (fun p -> (p, c.Traffic.Communication.rate))
             (Noc.Path.two_bend_all ~src:c.src ~snk:c.snk))
         comms)
  in
  let d = Routing.Delta.of_loads model loads in
  let score_full (path, rate) =
    let copy = Noc.Load.copy loads in
    Noc.Load.add_path copy path rate;
    (Routing.Evaluate.of_loads model copy).Routing.Evaluate.total_power
  in
  let score_delta (path, rate) =
    let m = Routing.Delta.mark d in
    Routing.Delta.add_path d path rate;
    let p = (Routing.Delta.report d).Routing.Evaluate.total_power in
    Routing.Delta.rollback d m;
    p
  in
  Array.iter
    (fun c ->
      if Int64.bits_of_float (score_full c) <> Int64.bits_of_float (score_delta c)
      then failwith "delta bench: incremental report disagrees with full")
    candidates;
  let throughput score =
    (* Calibrated timing loop: enough sweeps for a stable CPU-time read. *)
    let run () =
      let sweeps = ref 0 and elapsed = ref 0. in
      let t0 = Sys.time () in
      while !elapsed < 0.5 do
        Array.iter (fun c -> ignore (score c)) candidates;
        incr sweeps;
        elapsed := Sys.time () -. t0
      done;
      float_of_int (!sweeps * Array.length candidates) /. !elapsed
    in
    ignore (run ()) (* warm up *);
    run ()
  in
  let ops_full = throughput score_full in
  let ops_delta = throughput score_delta in
  Format.printf "  candidate paths per sweep: %d@." (Array.length candidates);
  Format.printf "  full re-evaluation      : %12.0f paths/s@." ops_full;
  Format.printf "  delta engine            : %12.0f paths/s@." ops_delta;
  Format.printf "  speedup: %.2fx@." (ops_delta /. ops_full);
  (* Part 2: the per-link cost lookup underneath, in isolation. *)
  let marginal cost (path, rate) =
    let acc = ref 0. in
    Noc.Path.iter_links path (fun l ->
        let before = Noc.Load.get_link loads l in
        acc := !acc +. cost (before +. rate) -. cost before);
    !acc
  in
  let direct = Power.Model.penalized_cost_capped model ~factor:1. in
  let table =
    let tb = Power.Model.table model in
    Power.Model.table_cost tb ~factor:1.
  in
  let checksum cost =
    Array.fold_left (fun acc c -> acc +. marginal cost c) 0. candidates
  in
  if Int64.bits_of_float (checksum direct) <> Int64.bits_of_float (checksum table)
  then failwith "delta bench: table and direct costs disagree";
  let ops_direct = throughput (marginal direct) in
  let ops_table = throughput (marginal table) in
  Format.printf
    "  per-link lookup: direct %.0f paths/s, table %.0f paths/s (%.2fx)@."
    ops_direct ops_table (ops_table /. ops_direct)

(* ------------------------------------------------------------------ *)
(* E26: campaign-grade simulator — early exit + arena reuse *)

let sim_bench () =
  section "E26 | campaign-grade simulator: early exit + arena reuse";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  let trials = 4 in
  let cycles = 6000 in
  let tolerance = 0.1 in
  (* The figpareto population: per trial, every feasible heuristic
     solution of a 12-communication mixed workload on the 8x8 mesh. *)
  let solutions =
    List.concat
      (List.init trials (fun trial ->
           let rng =
             Traffic.Rng.of_key "bench-sim" [ 262L; Int64.of_int trial ]
           in
           let comms =
             Traffic.Workload.uniform rng mesh ~n:12
               ~weight:Traffic.Workload.mixed
           in
           List.filter_map
             (fun (o : Routing.Best.outcome) ->
               if o.report.Routing.Evaluate.feasible then Some o.solution
               else None)
             (Routing.Best.run_all model mesh comms)))
  in
  Format.printf "  %d feasible solutions, %d-cycle budget, tolerance %g@."
    (List.length solutions) cycles tolerance;
  (* Naive: a fresh network per solution, full cycle budget. Optimized:
     one arena for the whole batch plus the convergence detector. *)
  let naive () =
    List.iter
      (fun s ->
        let net = Sim.Network.create model s in
        ignore (Sim.Network.run net ~cycles))
      solutions
  in
  let batch arena =
    List.map
      (fun s ->
        Sim.Network.run ~tolerance (Sim.Network.create ~arena model s) ~cycles)
      solutions
  in
  let optimized () = ignore (batch (Sim.Network.Arena.create ())) in
  (* Sanity: arena reuse + early exit stay deterministic across runs. *)
  let reports = batch (Sim.Network.Arena.domain ()) in
  let reports2 = batch (Sim.Network.Arena.domain ()) in
  List.iter2
    (fun (a : Sim.Network.report) (b : Sim.Network.report) ->
      if Int64.bits_of_float a.latency_p95 <> Int64.bits_of_float b.latency_p95
      then failwith "sim bench: batched simulation is not deterministic")
    reports reports2;
  let early =
    List.length (List.filter (fun r -> r.Sim.Network.early_exit) reports)
  in
  let measured =
    List.fold_left (fun acc r -> acc + r.Sim.Network.cycles) 0 reports
  in
  let repeats = 3 in
  let timed f =
    let t0 = Runner.now_s () in
    f ();
    Runner.now_s () -. t0
  in
  let med f =
    let ts = List.sort compare (List.init repeats (fun _ -> timed f)) in
    List.nth ts (repeats / 2)
  in
  let t_naive = med naive in
  let t_opt = med optimized in
  let speedup = t_naive /. t_opt in
  Format.printf "  naive (fresh network, full budget) : %8.3f s@." t_naive;
  Format.printf "  optimized (arena + early exit)     : %8.3f s@." t_opt;
  Format.printf "  speedup: %.1fx (target: >= 3x)@." speedup;
  Format.printf "  early exits: %d/%d, measured cycles %d of %d budgeted@."
    early (List.length reports) measured (cycles * List.length reports)

(* ------------------------------------------------------------------ *)
(* The catalogue *)

type t = { id : string; run : unit -> unit }

let all =
  [
    { id = "E1"; run = fig2 };
    { id = "E2"; run = lemma1 };
    { id = "E3"; run = thm1 };
    { id = "E4"; run = lem2 };
    { id = "E5"; run = np_gadget };
    { id = "E6-E9"; run = figures };
    { id = "E10"; run = optimal_gap };
    { id = "E11"; run = sim_validation };
    { id = "E12"; run = ablations };
    { id = "E16"; run = ablation_refinement };
    { id = "E14"; run = patterns_experiment };
    { id = "E13"; run = open_problem };
    { id = "E15"; run = splitting_rescue };
    { id = "E22"; run = smp_sweep };
    { id = "E23"; run = pf_sweep };
    { id = "E24"; run = recover_sweep };
    { id = "E27"; run = serve_sweep };
    { id = "E17"; run = mesh_scaling };
    { id = "E18"; run = weight_band_ablation };
    { id = "E21"; run = delta_bench };
    { id = "E26"; run = sim_bench };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> e.id = id) all
