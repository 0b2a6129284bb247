(* The PathFinder negotiated-congestion engine (Optim.Pathfinder).

   Four layers of contract: a [negotiate] outcome that claims feasibility
   must show zero overloaded links under the fault-effective capacities;
   its incremental report must bit-match a from-scratch rescore of the
   returned solution (the differential oracle); [engine] must never lose
   to the best single-path heuristic and must rescue negotiation-solvable
   instances every greedy policy fails; and the figpf campaign must stay
   byte-identical across worker counts and a kill-and-resume through the
   checkpoint sidecar. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let km = Power.Model.kim_horowitz
let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) (msg ^ " (bit-identical)") (bits a) (bits b)

let coord row col = Noc.Coord.make ~row ~col

let comm id r c r' c' rate =
  Traffic.Communication.make ~id ~src:(coord r c) ~snk:(coord r' c') ~rate

let loads_eq a b =
  let n = Noc.Mesh.num_links (Noc.Load.mesh a) in
  let ok = ref (Noc.Mesh.num_links (Noc.Load.mesh b) = n) in
  for id = 0 to n - 1 do
    if bits (Noc.Load.get a id) <> bits (Noc.Load.get b id) then ok := false
  done;
  !ok

let solution_respects fault s =
  List.for_all
    (fun (route : Routing.Solution.route) ->
      List.for_all (fun (p, _) -> Noc.Fault.path_usable fault p) route.paths
      && List.for_all
           (fun (w, _) -> Noc.Fault.walk_usable fault w)
           route.detours)
    (Routing.Solution.routes s)

let penalized ?fault sol =
  Routing.Evaluate.penalized km (Routing.Solution.loads ?fault sol)

let mixed_instance ?(p = 6) ?(n = 10) seed =
  let mesh = Noc.Mesh.square p in
  let rng = Traffic.Rng.create seed in
  let comms =
    Traffic.Workload.uniform rng mesh ~n ~weight:Traffic.Workload.mixed
  in
  (mesh, rng, comms)

(* ------------------------------------------------------------------ *)
(* Feasibility: a feasible verdict means zero fault-effective overloads *)

let prop_feasible_means_no_overload =
  QCheck.Test.make
    ~name:"feasible verdict implies zero overloads under effective capacities"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 4))
    (fun (seed, kills) ->
      let mesh, rng, comms = mixed_instance seed in
      (* Damage drawn after the workload, harness-style. *)
      let fault =
        if kills = 0 then None
        else
          Some (Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills mesh)
      in
      match Optim.Pathfinder.negotiate ?fault km mesh comms with
      | exception Routing.Repair.No_route _ -> kills > 0
      | o ->
          let loads =
            Routing.Solution.loads ?fault o.Optim.Pathfinder.solution
          in
          let respects =
            match fault with
            | None -> true
            | Some f -> solution_respects f o.solution
          in
          let clean =
            (not o.report.Routing.Evaluate.feasible)
            || (o.report.Routing.Evaluate.overloaded = []
               && Noc.Load.overloaded_effective loads
                    ~capacity:km.Power.Model.capacity
                  = [])
          in
          respects && clean)

(* ------------------------------------------------------------------ *)
(* Determinism: the same instance negotiates to the same bits *)

let prop_deterministic =
  QCheck.Test.make ~name:"negotiation is a pure function of its inputs"
    ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let mesh, _, comms = mixed_instance ~n:12 seed in
      let a = Optim.Pathfinder.negotiate km mesh comms in
      let b = Optim.Pathfinder.negotiate km mesh comms in
      a.Optim.Pathfinder.iterations = b.Optim.Pathfinder.iterations
      && a.rips = b.rips
      && bits a.report.Routing.Evaluate.total_power
         = bits b.report.Routing.Evaluate.total_power
      && loads_eq
           (Routing.Solution.loads a.solution)
           (Routing.Solution.loads b.solution))

(* ------------------------------------------------------------------ *)
(* The never-worse guard of the full engine *)

let prop_never_worse_than_best =
  QCheck.Test.make
    ~name:"engine never loses to the best single-path heuristic" ~count:20
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let mesh, _, comms = mixed_instance ~n:12 seed in
      let sol, _ = Optim.Pathfinder.engine km mesh comms in
      match Routing.Best.route km mesh comms with
      | Some best ->
          let report = Routing.Evaluate.solution km sol in
          report.Routing.Evaluate.feasible
          && report.total_power
             <= best.report.Routing.Evaluate.total_power +. 1e-9
      | None ->
          (* No feasible 1-MP greedy: negotiation may or may not rescue,
             but must not regress below the best penalized outcome. *)
          penalized sol
          <= List.fold_left
               (fun acc (o : Routing.Best.outcome) ->
                 Float.min acc (penalized o.solution))
               infinity
               (Routing.Best.run_all km mesh comms)
             +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the incremental report IS the full rescore *)

let check_reports_bit_equal tag (a : Routing.Evaluate.report)
    (b : Routing.Evaluate.report) =
  check_bool (tag ^ ": feasible") a.Routing.Evaluate.feasible
    b.Routing.Evaluate.feasible;
  check_bits (tag ^ ": total power") a.total_power b.total_power;
  check_bits (tag ^ ": static power") a.static_power b.static_power;
  check_bits (tag ^ ": dynamic power") a.dynamic_power b.dynamic_power;
  check_int (tag ^ ": active links") a.active_links b.active_links;
  check_bits (tag ^ ": max load") a.max_load b.max_load;
  check_int (tag ^ ": detour hops") a.detour_hops b.detour_hops;
  check_bool (tag ^ ": overloaded lists") true (a.overloaded = b.overloaded)

let test_report_matches_full_rescore () =
  (* The outcome's report must be the very report a from-scratch
     [Evaluate.of_loads] computes on the returned solution's loads —
     the incremental journal may not leak a single ulp. *)
  List.iter
    (fun seed ->
      let mesh, rng, comms = mixed_instance ~p:8 ~n:20 seed in
      let o = Optim.Pathfinder.negotiate km mesh comms in
      check_reports_bit_equal
        (Printf.sprintf "seed %d healthy" seed)
        (Routing.Evaluate.of_loads km
           (Routing.Solution.loads o.Optim.Pathfinder.solution))
        o.report;
      let fault =
        Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:3 mesh
      in
      let o = Optim.Pathfinder.negotiate ~fault km mesh comms in
      check_reports_bit_equal
        (Printf.sprintf "seed %d faulted" seed)
        (Routing.Evaluate.of_loads km
           (Routing.Solution.loads ~fault o.Optim.Pathfinder.solution))
        o.report)
    [ 3; 17; 313 ]

let test_negotiation_meters_its_work () =
  let mesh, _, comms = mixed_instance ~p:8 ~n:25 313 in
  let before = Routing.Metrics.snapshot () in
  ignore (Optim.Pathfinder.negotiate km mesh comms);
  let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
  check_bool "scoring went through the journal" true
    (work.Routing.Metrics.delta_evals > 0);
  check_bool "at least the initial pass metered" true
    (work.pf_iterations >= 1)

(* ------------------------------------------------------------------ *)
(* Negotiation rescues what greedy cannot route *)

let test_rescues_greedy_defeated_instance () =
  (* Two 2200 Mb/s communications along the same degenerate rectangle
     (row 1): every Manhattan policy stacks 4400 on the row links, far
     over the 3500 capacity, while pushing one of them onto a row-2 walk
     is comfortably feasible. The negotiation must discover that walk. *)
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 1 1 1 3 2200.; comm 1 1 1 1 3 2200. ] in
  check_bool "every greedy heuristic fails" true
    (Routing.Best.route km mesh comms = None);
  let o = Optim.Pathfinder.negotiate km mesh comms in
  check_bool "negotiation routes it feasibly" true
    o.Optim.Pathfinder.report.Routing.Evaluate.feasible;
  check_bool "one communication detours off the rectangle" true
    (Routing.Solution.detour_hops o.solution > 0);
  (* The engine keeps the rescue (feasible beats infeasible baseline). *)
  let sol, _ = Optim.Pathfinder.engine km mesh comms in
  check_bool "engine returns the feasible negotiation" true
    (Routing.Evaluate.solution km sol).Routing.Evaluate.feasible

let test_iteration_cap_respected () =
  Alcotest.check_raises "iterations = 0 rejected"
    (Invalid_argument "Pathfinder.negotiate: iterations < 1") (fun () ->
      ignore
        (Optim.Pathfinder.negotiate ~iterations:0 km (Noc.Mesh.square 2) []));
  Alcotest.check_raises "heuristic iterations = 0 rejected"
    (Invalid_argument "Pathfinder.heuristic: iterations < 1") (fun () ->
      ignore (Optim.Pathfinder.heuristic ~iterations:0 ()));
  let mesh, _, comms = mixed_instance ~n:12 5 in
  let o = Optim.Pathfinder.negotiate ~iterations:1 km mesh comms in
  check_int "cap 1 is exactly the initial pass" 1 o.Optim.Pathfinder.iterations;
  check_int "the initial pass rips nothing" 0 o.rips

(* Three 3000 Mb/s communications along row 1 of a 4x4 mesh overload
   every row-1 link whatever the negotiation tries, so each run goes to
   its cap. Both entry points read the report at the top of every pass
   and never after a capped last one ([refine] reads once more for its
   verdict); the work counters below pin that discipline. *)
let test_negotiation_reads_report () =
  let mesh = Noc.Mesh.square 4 in
  let comms = List.init 3 (fun id -> comm id 1 1 1 4 3000.) in
  let metered f =
    let before = Routing.Metrics.snapshot () in
    let x = f () in
    (x, Routing.Metrics.diff (Routing.Metrics.snapshot ()) before)
  in
  List.iter
    (fun (k, rips, checks, evals) ->
      let o, w =
        metered (fun () ->
            Optim.Pathfinder.negotiate ~iterations:k km mesh comms)
      in
      let tag s = Printf.sprintf "negotiate %d: %s" k s in
      check_int (tag "iterations") k o.Optim.Pathfinder.iterations;
      check_int (tag "rips") rips o.rips;
      check_bool (tag "infeasible") false o.report.Routing.Evaluate.feasible;
      check_int (tag "feasibility_checks") checks
        w.Routing.Metrics.feasibility_checks;
      check_int (tag "pf_iterations") k w.pf_iterations;
      check_int (tag "pf_rips") rips w.pf_rips;
      check_int (tag "delta_evals") evals w.delta_evals)
    [ (1, 0, 1, 186); (2, 2, 2, 448); (5, 8, 5, 1306) ];
  List.iter
    (fun (k, rips, checks, evals) ->
      let routes = Routing.Solution.routes (Routing.Xy.route mesh comms) in
      let eng = Routing.Delta.of_routes km mesh routes in
      let history = Array.make (Noc.Mesh.num_links mesh) 0. in
      let r, w =
        metered (fun () ->
            Optim.Pathfinder.refine ~iterations:k ~history eng
              (Array.of_list routes))
      in
      let tag s = Printf.sprintf "refine %d: %s" k s in
      check_int (tag "passes") k r.Optim.Pathfinder.passes;
      check_int (tag "rips") rips r.rips;
      check_bool (tag "infeasible") false r.feasible;
      check_int (tag "feasibility_checks") checks
        w.Routing.Metrics.feasibility_checks;
      check_int (tag "delta_evals") evals w.delta_evals)
    [ (0, 0, 1, 0); (1, 3, 2, 272); (3, 7, 4, 848) ]

(* ------------------------------------------------------------------ *)
(* Faults: dead links respected, disconnection is structured *)

let test_respects_dead_links () =
  let mesh = Noc.Mesh.square 6 in
  let h = Optim.Pathfinder.heuristic ~iterations:8 () in
  List.iter
    (fun seed ->
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:10
          ~weight:(Traffic.Workload.weight ~lo:200. ~hi:1500.)
      in
      let fault =
        Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:5 mesh
      in
      let sol = h.Routing.Heuristic.run ~fault km mesh comms in
      check_bool
        (Printf.sprintf "seed %d: no dead link crossed" seed)
        true (solution_respects fault sol);
      let report = Routing.Evaluate.solution ~fault km sol in
      check_bool
        (Printf.sprintf "seed %d: no overload on dead links" seed)
        true
        (List.for_all
           (fun (l, _) -> Noc.Fault.usable fault l)
           report.Routing.Evaluate.overloaded))
    [ 1; 2; 3; 4 ]

let test_no_route_when_disconnected () =
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let comms = [ comm 0 1 1 1 3 100. ] in
  let fault = Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2) in
  check_bool "No_route carries the communication" true
    (match Optim.Pathfinder.negotiate ~fault km mesh comms with
    | _ -> false
    | exception Routing.Repair.No_route c -> c.Traffic.Communication.id = 0)

let test_no_route_is_structured_trial_error () =
  (* A disconnected endpoint must not kill a campaign: the crash-safe
     runner records the No_route as an errored cell. *)
  let fault =
    let mesh = Noc.Mesh.square 8 in
    Noc.Fault.kill_router
      (Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2))
      (coord 2 1)
  in
  let figure =
    {
      Harness.Figure.figpf with
      xs = [ 2. ];
      generate = (fun _ _ -> [ comm 0 1 1 3 3 500. ]);
      scenario = Some (fun _ _ -> fault);
      heuristics = Some (fun _ -> [ Optim.Pathfinder.heuristic ~iterations:2 () ]);
    }
  in
  let result = Harness.Runner.run ~trials:2 ~seed:3 ~jobs:1 figure in
  match result.Harness.Runner.rows with
  | [ row ] ->
      let _, (s : Harness.Runner.stats) =
        List.find (fun (name, _) -> name = "PF") row.Harness.Runner.cells
      in
      check_bits "every trial errored, none crashed" 1. s.error_ratio
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Registry spellings and the extension seam *)

let test_registry_spellings () =
  let name s = Option.map (fun h -> h.Routing.Heuristic.name) s in
  check_bool "pf16" true (name (Optim.Pathfinder.find "pf16") = Some "PF16");
  check_bool "PF(8)" true (name (Optim.Pathfinder.find "PF(8)") = Some "PF8");
  check_bool "bare pf defaults to 32 iterations" true
    (name (Optim.Pathfinder.find "pf") = Some "PF32");
  check_bool "pf0 rejected" true (Optim.Pathfinder.find "pf0" = None);
  check_bool "pfx rejected" true (Optim.Pathfinder.find "pfx" = None);
  check_bool "unrelated names rejected" true (Optim.Pathfinder.find "smp4" = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: the figpf campaign is jobs- and crash-invariant *)

let small_figpf = { Harness.Figure.figpf with xs = [ 1.; 2. ] }

let campaign = Campaign_check.campaign ~trials:2 ~seed:7 small_figpf
let contains = Campaign_check.contains

let test_figpf_campaign_invariant () =
  let csv_1, ck_1 = campaign 1 in
  let csv_2, ck_2 = campaign 2 in
  check_string "csv: jobs=1 vs jobs=2" csv_1 csv_2;
  check_string "checkpoint: jobs=1 vs jobs=2" ck_1 ck_2;
  check_bool "csv has the PF power column" true (contains csv_1 "PF_power");
  check_bool "csv has the PF iteration column" true
    (contains csv_1 "PF_pf_iters");
  check_bool "csv has the PF rip column" true (contains csv_1 "PF_pf_rips")

let test_figpf_kill_and_resume () =
  let fresh, resumed =
    Campaign_check.kill_and_resume ~trials:2 ~seed:7 small_figpf
  in
  check_bool "killed-and-resumed campaign bit-identical" true
    (Campaign_check.rows_equal fresh resumed);
  check_string "resumed CSV byte-identical" (Harness.Render.csv fresh)
    (Harness.Render.csv resumed)

let () =
  Alcotest.run "pathfinder"
    [
      ( "negotiate",
        [
          QCheck_alcotest.to_alcotest prop_feasible_means_no_overload;
          QCheck_alcotest.to_alcotest prop_deterministic;
          Alcotest.test_case "rescues a greedy-defeated instance" `Quick
            test_rescues_greedy_defeated_instance;
          Alcotest.test_case "iteration cap respected" `Quick
            test_iteration_cap_respected;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "report bit-matches a full rescore" `Quick
            test_report_matches_full_rescore;
          Alcotest.test_case "negotiation meters its work" `Quick
            test_negotiation_meters_its_work;
          Alcotest.test_case "negotiation reads the report as before" `Quick
            test_negotiation_reads_report;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest prop_never_worse_than_best;
          Alcotest.test_case "routes avoid dead links" `Quick
            test_respects_dead_links;
          Alcotest.test_case "No_route propagates structured" `Quick
            test_no_route_when_disconnected;
          Alcotest.test_case "No_route becomes an errored campaign cell"
            `Quick test_no_route_is_structured_trial_error;
          Alcotest.test_case "registry spellings" `Quick
            test_registry_spellings;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figpf campaign jobs-invariant" `Slow
            test_figpf_campaign_invariant;
          Alcotest.test_case "figpf campaign survives a kill-and-resume"
            `Slow test_figpf_kill_and_resume;
        ] );
    ]
