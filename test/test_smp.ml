(* s-MP splitting and the flow-guided Smp engine.

   Three layers of contract: [Multipath.split_evenly] must produce shares
   whose canonical left-to-right sum is the parent rate BIT FOR BIT (the
   checkpointed campaigns compare loads through [Int64.bits_of_float], so
   a lost ulp is a failure); [Multipath.route_split] must forward the
   fault scenario and never lose to its unsplit base on the capped
   penalized objective; and [Optim.Smp.engine] must never lose to the
   best single-path heuristic, rescue instances every 1-MP policy fails,
   respect dead links, and keep campaign rows byte-identical across
   worker counts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let km = Power.Model.kim_horowitz
let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) (msg ^ " (bit-identical)") (bits a) (bits b)

let coord row col = Noc.Coord.make ~row ~col
let link r c r' c' = Noc.Mesh.link ~src:(coord r c) ~dst:(coord r' c')

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

(* ------------------------------------------------------------------ *)
(* split_evenly: exact shares *)

let prop_split_sum_bitwise =
  QCheck.Test.make ~name:"split_evenly shares sum to the rate bit for bit"
    ~count:500
    QCheck.(pair (int_range 1 12) (float_range 1. 40_000.))
    (fun (s, rate) ->
      let c = comm 7 1 1 3 4 rate in
      let parts = Routing.Multipath.split_evenly ~s c in
      List.length parts = s
      && List.for_all
           (fun (p : Traffic.Communication.t) ->
             p.rate > 0. && p.id = 7 && p.src = c.src && p.snk = c.snk)
           parts
      && bits
           (List.fold_left
              (fun acc (p : Traffic.Communication.t) -> acc +. p.rate)
              0. parts)
         = bits rate)

let test_split_rejects_nonpositive () =
  Alcotest.check_raises "s = 0 rejected"
    (Invalid_argument "Multipath.split_evenly: s < 1") (fun () ->
      ignore (Routing.Multipath.split_evenly ~s:0 (comm 0 1 1 2 2 100.)))

let test_split_one_is_identity () =
  let c = comm 3 1 1 4 4 1234.5 in
  match Routing.Multipath.split_evenly ~s:1 c with
  | [ p ] -> check_bits "rate untouched" c.Traffic.Communication.rate p.rate
  | parts -> Alcotest.failf "expected 1 part, got %d" (List.length parts)

(* ------------------------------------------------------------------ *)
(* route_split: fault forwarding, id independence, never-worse guard *)

let penalized ?fault sol =
  Routing.Evaluate.penalized km (Routing.Solution.loads ?fault sol)

let prop_route_split_never_worse =
  QCheck.Test.make
    ~name:"route_split never loses to the unsplit base (penalized)" ~count:30
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 4))
    (fun (seed, s) ->
      let mesh = Noc.Mesh.square 5 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:6
          ~weight:(Traffic.Workload.weight ~lo:300. ~hi:3000.)
      in
      let base = Routing.Heuristic.sg in
      let split = Routing.Multipath.route_split ~s ~base km mesh comms in
      let unsplit = base.Routing.Heuristic.run km mesh comms in
      penalized split <= penalized unsplit)

let test_route_split_forwards_fault () =
  (* Row communication (1,1)->(1,4): every Manhattan path dies with the
     (1,2)-(1,3) edge, so each part must detour — and before the fix the
     fault never reached the part-routing pass at all. *)
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 1 1 1 4 800.; comm 1 2 1 4 3 1200. ] in
  let fault = Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 2 1 3) in
  let sol =
    Routing.Multipath.route_split ~s:2 ~base:Routing.Heuristic.sg ~fault km
      mesh comms
  in
  check_bool "no dead link crossed" true (solution_respects fault sol);
  check_bool "still feasible around the fault" true
    (Routing.Evaluate.solution ~fault km sol).Routing.Evaluate.feasible;
  check_bool "the cut row comm detours" true
    (Routing.Solution.detour_hops sol > 0)

let test_route_split_ignores_input_ids () =
  (* Parts are re-keyed internally, so duplicate input ids must not make
     one communication's parts merge into another's routes. Identical
     workloads with clashing and with unique ids must yield bit-equal
     loads — and each route must keep its own communication. *)
  let mesh = Noc.Mesh.square 5 in
  let dup = [ comm 0 1 1 3 4 900.; comm 0 4 2 2 5 1700. ] in
  let uniq = [ comm 0 1 1 3 4 900.; comm 1 4 2 2 5 1700. ] in
  let route cs =
    Routing.Multipath.route_split ~s:2 ~base:Routing.Heuristic.xy km mesh cs
  in
  let sol_dup = route dup and sol_uniq = route uniq in
  check_bool "loads independent of input ids" true
    (loads_eq (Routing.Solution.loads sol_dup) (Routing.Solution.loads sol_uniq));
  List.iter2
    (fun (c : Traffic.Communication.t) (r : Routing.Solution.route) ->
      check_bool "route keeps its own comm" true
        (Traffic.Communication.equal c r.comm);
      check_bits "shares sum to the comm's rate" c.rate
        (List.fold_left (fun acc (_, sh) -> acc +. sh) 0. r.paths))
    dup
    (Routing.Solution.routes sol_dup)

let test_route_split_s1_matches_base () =
  let mesh = Noc.Mesh.square 5 in
  let rng = Traffic.Rng.create 42 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:8 ~weight:Traffic.Workload.mixed
  in
  let base = Routing.Heuristic.ig in
  let split = Routing.Multipath.route_split ~s:1 ~base km mesh comms in
  let unsplit = base.Routing.Heuristic.run km mesh comms in
  check_bool "s=1 reproduces the base loads" true
    (loads_eq (Routing.Solution.loads split) (Routing.Solution.loads unsplit))

(* ------------------------------------------------------------------ *)
(* Frank–Wolfe flows: conservation, the raw material of path stripping *)

let test_solve_flows_conservation () =
  let mesh = Noc.Mesh.square 6 in
  let rng = Traffic.Rng.create 11 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:6
      ~weight:(Traffic.Workload.weight ~lo:500. ~hi:3000.)
  in
  let _, flows = Optim.Frank_wolfe.solve_flows ~iterations:60 km mesh comms in
  check_int "one flow per communication" (List.length comms)
    (List.length flows);
  List.iter
    (fun (fl : Optim.Frank_wolfe.flow) ->
      let c = fl.comm in
      let eps = 1e-6 *. c.Traffic.Communication.rate in
      let net : (Noc.Coord.t, float) Hashtbl.t = Hashtbl.create 16 in
      let bump core d =
        Hashtbl.replace net core
          (d +. Option.value ~default:0. (Hashtbl.find_opt net core))
      in
      Array.iteri
        (fun i id ->
          let share = fl.shares.(i) in
          check_bool "share nonnegative" true (share >= -.eps);
          let l = Noc.Mesh.link_of_id mesh id in
          bump l.Noc.Mesh.src share;
          bump l.Noc.Mesh.dst (-.share))
        fl.dag.ids;
      Hashtbl.iter
        (fun core excess ->
          let expect =
            if core = c.src then c.rate
            else if core = c.snk then -.c.rate
            else 0.
          in
          if Float.abs (excess -. expect) > eps then
            Alcotest.failf "conservation violated at %s: %g vs %g"
              (Format.asprintf "%a" Noc.Coord.pp core)
              excess expect)
        net)
    flows

(* ------------------------------------------------------------------ *)
(* The Smp engine *)

let prop_smp_never_worse_than_best =
  QCheck.Test.make
    ~name:"smp(4) never loses to the best single-path heuristic" ~count:15
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let mesh = Noc.Mesh.square 5 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:8 ~weight:Traffic.Workload.mixed
      in
      let sol = Optim.Smp.engine ~iterations:80 ~s:4 km mesh comms in
      let report = Routing.Evaluate.solution km sol in
      match Routing.Best.route km mesh comms with
      | Some best ->
          report.Routing.Evaluate.feasible
          && report.total_power
             <= best.report.Routing.Evaluate.total_power +. 1e-9
      | None ->
          (* No feasible 1-MP: smp may or may not rescue, but must not
             regress below the best penalized outcome. *)
          penalized sol
          <= List.fold_left
               (fun acc (o : Routing.Best.outcome) ->
                 Float.min acc (penalized o.solution))
               infinity
               (Routing.Best.run_all km mesh comms)
             +. 1e-9)

let test_smp_rescues_single_path_infeasible () =
  (* One 6000 Mb/s communication across a 2x2 bounding rectangle: every
     single path carries 6000 on each of its links — far beyond the 3500
     capacity — while two disjoint Manhattan paths at 3000 each are
     comfortably feasible. The paper's hierarchy made concrete: the
     instance is in s-MP \ 1-MP for s >= 2. *)
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 1 1 3 3 6000. ] in
  check_bool "every 1-MP heuristic fails" true
    (Routing.Best.route km mesh comms = None);
  check_bool "fractionally routable, certified" true
    (Optim.Frank_wolfe.fractionally_feasible km mesh comms);
  let sol = Optim.Smp.engine ~s:2 km mesh comms in
  let report = Routing.Evaluate.solution km sol in
  check_bool "smp(2) routes it feasibly" true report.Routing.Evaluate.feasible;
  check_int "using both allowed paths" 2
    (Routing.Solution.max_paths_per_comm sol)

let test_smp_respects_dead_links () =
  let mesh = Noc.Mesh.square 6 in
  let h = Optim.Smp.heuristic ~iterations:60 ~s:4 () in
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
        (Printf.sprintf "seed %d: evaluation sees no overload on dead links"
           seed)
        true
        (List.for_all
           (fun (l, _) -> Noc.Fault.usable fault l)
           report.Routing.Evaluate.overloaded))
    [ 1; 2; 3; 4 ]

let test_smp_raises_no_route_when_disconnected () =
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let comms = [ comm 0 1 1 1 3 100. ] in
  let fault = Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2) in
  let h = Optim.Smp.heuristic ~s:2 () in
  check_bool "No_route carries the communication" true
    (match h.Routing.Heuristic.run ~fault km mesh comms with
    | _ -> false
    | exception Routing.Repair.No_route c -> c.Traffic.Communication.id = 0)

let test_smp_no_route_is_structured_trial_error () =
  (* In a campaign, a disconnected endpoint must not kill the run: the
     crash-safe runner records the No_route as an errored cell. Core
     (1,1) of the harness's 8x8 mesh is sealed off by killing its two
     neighbor routers. *)
  let fault =
    let mesh = Noc.Mesh.square 8 in
    Noc.Fault.kill_router
      (Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2))
      (coord 2 1)
  in
  let figure =
    {
      Harness.Figure.figs with
      xs = [ 2. ];
      generate = (fun _ _ -> [ comm 0 1 1 3 3 500. ]);
      scenario = Some (fun _ _ -> fault);
      heuristics = Some (fun _ -> [ Optim.Smp.heuristic ~s:2 () ]);
    }
  in
  let result = Harness.Runner.run ~trials:2 ~seed:3 ~jobs:1 figure in
  match result.Harness.Runner.rows with
  | [ row ] ->
      let _, (s : Harness.Runner.stats) =
        List.find (fun (name, _) -> name = "SMP2") row.Harness.Runner.cells
      in
      check_bits "every trial errored, none crashed" 1. s.error_ratio
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_smp_registry_spellings () =
  let name s = Option.map (fun h -> h.Routing.Heuristic.name) s in
  check_bool "smp4" true (name (Optim.Smp.find "smp4") = Some "SMP4");
  check_bool "SMP(8)" true (name (Optim.Smp.find "SMP(8)") = Some "SMP8");
  check_bool "bare smp defaults to s=4" true
    (name (Optim.Smp.find "smp") = Some "SMP4");
  check_bool "smp0 rejected" true (Optim.Smp.find "smp0" = None);
  check_bool "unrelated names rejected" true (Optim.Smp.find "xy" = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: the figs campaign is jobs-invariant *)

let small_figs = { Harness.Figure.figs with xs = [ 1.; 2. ] }

let campaign = Campaign_check.campaign ~trials:2 ~seed:9 small_figs
let contains = Campaign_check.contains

let test_figs_campaign_invariant () =
  let csv_1, ck_1 = campaign 1 in
  let csv_2, ck_2 = campaign 2 in
  check_string "csv: jobs=1 vs jobs=2" csv_1 csv_2;
  check_string "checkpoint: jobs=1 vs jobs=2" ck_1 ck_2;
  check_bool "csv has the SMP power column" true (contains csv_1 "SMP_power");
  check_bool "csv has the SMP delta-eval column" true
    (contains csv_1 "SMP_delta_evals")

let () =
  Alcotest.run "smp"
    [
      ( "split",
        [
          QCheck_alcotest.to_alcotest prop_split_sum_bitwise;
          Alcotest.test_case "s = 0 rejected" `Quick
            test_split_rejects_nonpositive;
          Alcotest.test_case "s = 1 is the identity" `Quick
            test_split_one_is_identity;
        ] );
      ( "route_split",
        [
          QCheck_alcotest.to_alcotest prop_route_split_never_worse;
          Alcotest.test_case "fault forwarded to the part router" `Quick
            test_route_split_forwards_fault;
          Alcotest.test_case "merge independent of input ids" `Quick
            test_route_split_ignores_input_ids;
          Alcotest.test_case "s = 1 reproduces the base" `Quick
            test_route_split_s1_matches_base;
        ] );
      ( "flows",
        [
          Alcotest.test_case "fractional flows conserve rate" `Quick
            test_solve_flows_conservation;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest prop_smp_never_worse_than_best;
          Alcotest.test_case "rescues a 1-MP-infeasible instance" `Quick
            test_smp_rescues_single_path_infeasible;
          Alcotest.test_case "routes avoid dead links" `Quick
            test_smp_respects_dead_links;
          Alcotest.test_case "No_route propagates structured" `Quick
            test_smp_raises_no_route_when_disconnected;
          Alcotest.test_case "No_route becomes an errored campaign cell"
            `Quick test_smp_no_route_is_structured_trial_error;
          Alcotest.test_case "registry spellings" `Quick
            test_smp_registry_spellings;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figs campaign jobs-invariant" `Slow
            test_figs_campaign_invariant;
        ] );
    ]
