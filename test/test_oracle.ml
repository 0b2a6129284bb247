(* Oracle tests: on instances small enough for the exact branch-and-bound
   (meshes up to 4x4, at most 4 communications), every heuristic is checked
   against the ground truth — no feasible solution may beat the optimum,
   BEST must be exactly the cheapest feasible outcome, and a proved-
   infeasible instance must defeat every single-path policy. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let km = Power.Model.kim_horowitz

let instance_gen =
  QCheck.Gen.(
    triple (int_range 0 100_000) (int_range 2 4) (int_range 1 4))

let make_instance (seed, p, n) =
  let mesh = Noc.Mesh.square p in
  let rng = Traffic.Rng.create seed in
  (* A wide band so both feasible and infeasible instances appear. *)
  let comms =
    Traffic.Workload.uniform rng mesh ~n
      ~weight:(Traffic.Workload.weight ~lo:400. ~hi:3000.)
  in
  (mesh, comms)

let prop_heuristics_never_beat_exact =
  QCheck.Test.make
    ~name:"feasible heuristic power is bounded below by the exact optimum"
    ~count:60
    (QCheck.make instance_gen)
    (fun params ->
      let mesh, comms = make_instance params in
      match Optim.Exact.route km mesh comms with
      | Optim.Exact.Optimal (_, opt) ->
          List.for_all
            (fun (o : Routing.Best.outcome) ->
              (not o.report.Routing.Evaluate.feasible)
              || o.report.total_power >= opt -. 1e-6)
            (Routing.Best.run_all km mesh comms)
      | Optim.Exact.Infeasible ->
          (* The exact search proved no single-path routing fits; no
             heuristic may claim otherwise. *)
          List.for_all
            (fun (o : Routing.Best.outcome) ->
              not o.report.Routing.Evaluate.feasible)
            (Routing.Best.run_all km mesh comms)
      | Optim.Exact.Timeout _ -> QCheck.assume_fail ())

let prop_best_of_is_cheapest_feasible =
  QCheck.Test.make
    ~name:"best_of returns exactly the cheapest feasible outcome" ~count:60
    (QCheck.make instance_gen)
    (fun params ->
      let mesh, comms = make_instance params in
      let outcomes = Routing.Best.run_all km mesh comms in
      let feasible =
        List.filter
          (fun (o : Routing.Best.outcome) ->
            o.report.Routing.Evaluate.feasible)
          outcomes
      in
      match Routing.Best.best_of outcomes with
      | None -> feasible = []
      | Some best ->
          best.report.Routing.Evaluate.feasible
          && List.for_all
               (fun (o : Routing.Best.outcome) ->
                 best.report.Routing.Evaluate.total_power
                 <= o.report.total_power +. 1e-9)
               feasible)

let prop_best_gap_to_optimum_nonnegative =
  QCheck.Test.make
    ~name:"BEST's power is sandwiched between the optimum and any heuristic"
    ~count:40
    (QCheck.make instance_gen)
    (fun params ->
      let mesh, comms = make_instance params in
      match Optim.Exact.route km mesh comms with
      | Optim.Exact.Optimal (_, opt) -> (
          match Routing.Best.route km mesh comms with
          | None -> true (* heuristics may all fail on a solvable instance *)
          | Some best ->
              best.report.Routing.Evaluate.total_power >= opt -. 1e-6)
      | _ -> true)

let test_fig2_oracle () =
  (* Deterministic anchor: on the paper's Figure 2 instance the optimum is
     56 and every Manhattan heuristic finds it. *)
  let coord row col = Noc.Coord.make ~row ~col in
  let model = Power.Model.make ~p_leak:0. ~p0:1. ~alpha:3. ~capacity:4. () in
  let comms =
    [
      Traffic.Communication.make ~id:0 ~src:(coord 1 1) ~snk:(coord 2 2) ~rate:1.;
      Traffic.Communication.make ~id:1 ~src:(coord 1 1) ~snk:(coord 2 2) ~rate:3.;
    ]
  in
  let mesh = Noc.Mesh.square 2 in
  match Optim.Exact.route model mesh comms with
  | Optim.Exact.Optimal (_, opt) ->
      Alcotest.(check (float 1e-9)) "optimum is 56" 56. opt;
      (match Routing.Best.route model mesh comms with
      | Some best ->
          Alcotest.(check (float 1e-9)) "BEST finds the optimum" 56.
            best.report.Routing.Evaluate.total_power
      | None -> Alcotest.fail "BEST must be feasible on fig2");
      List.iter
        (fun (o : Routing.Best.outcome) ->
          if o.report.Routing.Evaluate.feasible then
            check_bool
              (o.heuristic.Routing.Heuristic.name ^ " above optimum")
              true
              (o.report.total_power >= opt -. 1e-9))
        (Routing.Best.run_all model mesh comms)
  | _ -> Alcotest.fail "fig2 must solve exactly"

(* ------------------------------------------------------------------ *)
(* Pinned E22 regression fixtures.

   The E22 experiment (manroute experiment E22) draws 40 instances of 25
   mixed communications on the paper's 8x8 CMP from master seed 313.
   Exactly 8 of them defeat every greedy single-path heuristic, and two
   of those also defeat the flow-guided s-MP splitter at s = 4. These
   indices are pinned here as regression oracles for the PathFinder
   negotiation engine: it must keep rescuing at least 6 of the 8 —
   including trial 31, the s-MP-infeasible one a single non-Manhattan
   walk happens to solve — and trial 8 must keep being PROVABLY
   unroutable by any single-path policy (walks included), which is why
   "rescue both s-MP-infeasible instances" is a mathematical
   impossibility rather than an engine weakness. *)

let coord row col = Noc.Coord.make ~row ~col

let e22_trials () =
  let mesh = Noc.Mesh.square 8 in
  let rng = Traffic.Rng.create 313 in
  let trials = Array.make 40 [] in
  for i = 0 to 39 do
    (* Sequential draws from the one master rng, exactly as E22 does. *)
    trials.(i) <-
      Traffic.Workload.uniform rng mesh ~n:25 ~weight:Traffic.Workload.mixed
  done;
  (mesh, trials)

let greedy_defeated = [ 0; 3; 8; 10; 28; 30; 31; 32 ]
let smp4_infeasible = [ 8; 31 ]

let test_e22_greedy_defeated_pinned () =
  let mesh, trials = e22_trials () in
  Array.iteri
    (fun i comms ->
      let defeated = Routing.Best.route km mesh comms = None in
      check_bool
        (Printf.sprintf "trial %d greedy-%s" i
           (if List.mem i greedy_defeated then "defeated" else "feasible"))
        (List.mem i greedy_defeated)
        defeated)
    trials

let test_e22_pathfinder_rescues () =
  let mesh, trials = e22_trials () in
  (* The two pinned s-MP-infeasible instances stay that way. *)
  List.iter
    (fun i ->
      let sol = Optim.Smp.engine ~s:4 km mesh trials.(i) in
      check_bool
        (Printf.sprintf "trial %d defeats smp(4)" i)
        false
        (Routing.Evaluate.solution km sol).Routing.Evaluate.feasible)
    smp4_infeasible;
  let rescued =
    List.filter
      (fun i ->
        let o = Optim.Pathfinder.negotiate km mesh trials.(i) in
        o.Optim.Pathfinder.report.Routing.Evaluate.feasible)
      greedy_defeated
  in
  check_bool
    (Printf.sprintf "PF rescues >= 6 of 8 (got %d: %s)" (List.length rescued)
       (String.concat "," (List.map string_of_int rescued)))
    true
    (List.length rescued >= 6);
  check_bool "PF rescues the s-MP-infeasible trial 31" true
    (List.mem 31 rescued)

let test_e22_trial8_cut_bound () =
  (* Trial 8 is unroutable by ANY single-path policy — Manhattan paths,
     detour walks, negotiation, anything that assigns each communication
     one walk. The cut argument, computed from the drawn workload itself
     so the pin survives only while the arithmetic does:

     Core (7,8) sits on the right edge with three out-links (up, left,
     down). Its out-communications exceed the combined up+left capacity,
     so some atom would have to leave DOWN through corner (8,8). But the
     corner's two in-links also absorb whole-communication arrivals
     whose sum exceeds one capacity, so at least one arrival must ride
     the (7,8)->(8,8) link, leaving it less transit headroom than the
     smallest out-atom needs. No atom fits down; up+left overflow. *)
  let mesh, trials = e22_trials () in
  let comms = trials.(8) in
  let hub = coord 7 8 and corner = coord 8 8 in
  let capacity = km.Power.Model.capacity in
  check_int "hub is an edge core with three out-links" 3
    (List.length (Noc.Mesh.neighbors mesh hub));
  check_int "corner has exactly two in-links" 2
    (List.length (Noc.Mesh.neighbors mesh corner));
  let rates p =
    List.filter_map
      (fun (c : Traffic.Communication.t) -> if p c then Some c.rate else None)
      comms
  in
  let out_atoms =
    rates (fun c -> c.src = hub && c.snk <> hub)
  and arrivals = rates (fun c -> c.snk = corner && c.src <> corner) in
  let sum = List.fold_left ( +. ) 0. in
  let min_of = function
    | [] -> infinity
    | x :: tl -> List.fold_left Float.min x tl
  in
  check_bool "hub demand exceeds the up+left cut (2 capacities)" true
    (sum out_atoms > 2. *. capacity);
  check_bool "corner arrivals exceed one capacity" true
    (sum arrivals > capacity);
  check_bool "smallest out-atom exceeds the corner transit headroom" true
    (min_of out_atoms > capacity -. min_of arrivals);
  (* The engines agree with the arithmetic. *)
  check_bool "every greedy heuristic fails" true
    (Routing.Best.route km mesh comms = None);
  let o = Optim.Pathfinder.negotiate km mesh comms in
  check_bool "negotiation cannot beat the cut" false
    o.Optim.Pathfinder.report.Routing.Evaluate.feasible

let () =
  Alcotest.run "oracle"
    [
      ( "exact-vs-heuristics",
        [
          Alcotest.test_case "figure 2 anchor" `Quick test_fig2_oracle;
          QCheck_alcotest.to_alcotest prop_heuristics_never_beat_exact;
          QCheck_alcotest.to_alcotest prop_best_of_is_cheapest_feasible;
          QCheck_alcotest.to_alcotest prop_best_gap_to_optimum_nonnegative;
        ] );
      ( "e22-fixtures",
        [
          Alcotest.test_case "greedy-defeated set pinned" `Slow
            test_e22_greedy_defeated_pinned;
          Alcotest.test_case "pathfinder rescues" `Slow
            test_e22_pathfinder_rescues;
          Alcotest.test_case "trial 8 cut bound" `Quick
            test_e22_trial8_cut_bound;
        ] );
    ]
