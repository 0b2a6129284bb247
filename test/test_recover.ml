(* The live fault-event recovery engine (Optim.Recover) and the fault
   schedules that drive it (Noc.Fault.Schedule).

   Contract layers: schedules drawn from a seeded chooser are
   reproducible and prefix-nested; every [step] report's [eval] is
   bit-identical to a from-scratch rescore of the live solution under the
   stepped fault (the differential oracle); the escalation ladder never
   crashes — a region cut sheds with a typed [Disconnected] reason, a
   zero budget sheds [Budget_exhausted], structural overload sheds
   [Infeasible_overload] — and restores readmit what was shed; and the
   figrec campaign stays byte-identical across worker counts and a
   kill-and-resume through the checkpoint sidecar. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let km = Power.Model.kim_horowitz
let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) (msg ^ " (bit-identical)") (bits a) (bits b)

let coord row col = Noc.Coord.make ~row ~col
let link r1 c1 r2 c2 = Noc.Mesh.link ~src:(coord r1 c1) ~dst:(coord r2 c2)

let comm id r c r' c' rate =
  Traffic.Communication.make ~id ~src:(coord r c) ~snk:(coord r' c') ~rate

let solution_respects fault s =
  List.for_all
    (fun (route : Routing.Solution.route) ->
      List.for_all (fun (p, _) -> Noc.Fault.path_usable fault p) route.paths
      && List.for_all
           (fun (w, _) -> Noc.Fault.walk_usable fault w)
           route.detours)
    (Routing.Solution.routes s)

let mixed_instance ?(p = 6) ?(n = 10) seed =
  let mesh = Noc.Mesh.square p in
  let rng = Traffic.Rng.create seed in
  let comms =
    Traffic.Workload.uniform rng mesh ~n ~weight:Traffic.Workload.mixed
  in
  (mesh, rng, comms)

(* ------------------------------------------------------------------ *)
(* Schedules: deterministic, prefix-nested, always-valid targets *)

let draw_schedule ?(p = 5) seed events =
  let rng = Traffic.Rng.create seed in
  Noc.Fault.Schedule.random
    ~choose:(Traffic.Rng.int rng)
    ~events (Noc.Mesh.square p)

let prop_schedule_deterministic_and_nested =
  QCheck.Test.make
    ~name:"schedules are a pure function of the chooser and prefix-nested"
    ~count:50
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 24))
    (fun (seed, n) ->
      let a = draw_schedule seed n and b = draw_schedule seed n in
      let longer = draw_schedule seed (n + 7) in
      Noc.Fault.Schedule.events a = Noc.Fault.Schedule.events b
      && Noc.Fault.Schedule.length a = n
      && (let le = Noc.Fault.Schedule.events longer in
          List.filteri (fun i _ -> i < n) le = Noc.Fault.Schedule.events a))

let prop_schedule_targets_always_valid =
  (* Tracking the evolving scenario during generation promises that kills
     hit alive edges and restores hit broken ones; replaying the schedule
     must therefore never raise, and every restore must actually revive
     something (factor goes 0 -> 1 or stays 1 only if weights forced a
     fallback kill, which random never emits as Restore). *)
  QCheck.Test.make ~name:"random schedules replay without error" ~count:50
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 32))
    (fun (seed, n) ->
      let s = draw_schedule seed n in
      let states = Noc.Fault.Schedule.play s in
      List.length states = n
      &&
      let mesh = Noc.Fault.Schedule.mesh s in
      List.for_all2
        (fun e f ->
          (* Whatever the event touched is inside the mesh. *)
          List.for_all
            (fun l -> Noc.Fault.factor_link f l >= 0.)
            (Noc.Fault.Schedule.touched mesh e))
        (Noc.Fault.Schedule.events s)
        states)

let test_schedule_apply_semantics () =
  let m3 = Noc.Mesh.square 3 in
  let healthy = Noc.Fault.healthy m3 in
  let l = link 1 1 1 2 in
  let open Noc.Fault.Schedule in
  let f = apply healthy (Kill_link l) in
  check_bool "kill" false (Noc.Fault.usable f l);
  let f = apply f (Restore l) in
  check_bool "restore revives both directions" true
    (Noc.Fault.usable f l && Noc.Fault.usable f (link 1 2 1 1));
  check_bool "restored scenario is trivial again" true
    (Noc.Fault.is_trivial f);
  let f = apply healthy (Degrade_link (l, 0.25)) in
  check_bool "degrade" true (Noc.Fault.factor_link f l = 0.25);
  let f = apply healthy (Kill_router (coord 2 2)) in
  check_int "router kill: four incident edges" 4 (Noc.Fault.num_dead f);
  let f = apply healthy (Kill_region { a = coord 1 1; b = coord 2 2 }) in
  check_bool "region cut disconnects the corner" false (Noc.Fault.connected f);
  let sched = make m3 [ Kill_link l; Degrade_link (link 2 1 2 2, 0.5) ] in
  check_int "length" 2 (length sched);
  let final = final sched in
  check_bool "final folds every event" true
    ((not (Noc.Fault.usable final l))
    && Noc.Fault.factor_link final (link 2 1 2 2) = 0.5);
  check_int "play yields one state per event" 2 (List.length (play sched));
  check_bool "touched covers both directions" true
    (let t = touched m3 (Kill_link l) in
     List.mem l t && List.mem (link 1 2 1 1) t);
  check_bool "negative event count rejected" true
    (match
       draw_schedule 1 (-1)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The per-step differential oracle *)

let routed seed =
  (* A Best-routable mixed instance, or None when every heuristic fails
     (dense mixed workloads sometimes defeat all single-path policies). *)
  let mesh, rng, comms = mixed_instance ~p:6 ~n:8 seed in
  match Routing.Best.route km mesh comms with
  | Some (o : Routing.Best.outcome) -> Some (mesh, rng, o.solution)
  | None -> None

let prop_step_eval_is_full_rescore =
  QCheck.Test.make
    ~name:"every step report bit-matches a from-scratch rescore" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, events) ->
      match routed seed with
      | None -> true
      | Some (mesh, rng, solution) ->
          let schedule =
            Noc.Fault.Schedule.random
              ~choose:(Traffic.Rng.int rng)
              ~events mesh
          in
          let t = Optim.Recover.create km solution in
          List.for_all
            (fun e ->
              let r = Optim.Recover.step t e in
              let fault = Optim.Recover.fault t in
              let live = Optim.Recover.solution t in
              let rescore =
                Routing.Evaluate.of_loads km
                  (Routing.Solution.loads ~fault live)
              in
              bits r.Optim.Recover.eval.Routing.Evaluate.total_power
              = bits rescore.Routing.Evaluate.total_power
              && r.eval.feasible = rescore.feasible
              && bits r.power_after = bits r.eval.total_power
              && solution_respects fault live
              && r.rung >= 1 && r.rung <= 5
              && r.live = List.length (Routing.Solution.routes live))
            (Noc.Fault.Schedule.events schedule))

let prop_run_never_raises_and_ends_feasible =
  (* Graceful degradation, the headline claim: whatever the schedule
     does, run returns (the empty solution is always feasible) and the
     final state is feasible under the final fault. *)
  QCheck.Test.make ~name:"recovery never crashes and ends feasible"
    ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 16))
    (fun (seed, events) ->
      match routed seed with
      | None -> true
      | Some (mesh, rng, solution) ->
          let schedule =
            Noc.Fault.Schedule.random
              ~choose:(Traffic.Rng.int rng)
              ~events mesh
          in
          let t, reports = Optim.Recover.run km solution schedule in
          let fault = Optim.Recover.fault t in
          let live = Optim.Recover.solution t in
          List.length reports = events
          && (Routing.Evaluate.of_loads km
                (Routing.Solution.loads ~fault live))
               .Routing.Evaluate.feasible
          && solution_respects fault live
          && List.length (Routing.Solution.routes live)
             + List.length (Optim.Recover.shed t)
             = 8)

let test_run_meters_its_work () =
  match routed 313 with
  | None -> Alcotest.fail "seed 313 must be Best-routable"
  | Some (mesh, rng, solution) ->
      let schedule =
        Noc.Fault.Schedule.random ~choose:(Traffic.Rng.int rng) ~events:10
          mesh
      in
      let before = Routing.Metrics.snapshot () in
      ignore (Optim.Recover.run km solution schedule);
      let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
      check_int "ten events metered" 10 work.Routing.Metrics.recover_events;
      check_bool "rung sum counts every event at least once" true
        (work.recover_rung_max >= 10);
      check_bool "scoring went through the journal" true (work.delta_evals > 0)

(* ------------------------------------------------------------------ *)
(* The ladder's typed shedding *)

let test_region_cut_sheds_disconnected () =
  (* Comm 0 ends inside the region the event kills: no repair can save
     it, so the ladder sheds it with the [Disconnected] reason at rung 5
     instead of crashing, while comm 1 (confined to row 1) survives. *)
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 1 1 4 4 500.; comm 1 1 2 1 4 300. ] in
  let solution =
    match Routing.Best.route km mesh comms with
    | Some o -> o.Routing.Best.solution
    | None -> Alcotest.fail "instance must route"
  in
  let schedule =
    Noc.Fault.Schedule.make mesh
      [ Kill_region { a = coord 3 3; b = coord 4 4 } ]
  in
  let t, reports = Optim.Recover.run km solution schedule in
  let r = List.hd reports in
  check_int "rung 5: shedding happened" 5 r.Optim.Recover.rung;
  (match r.shed_now with
  | [ { comm = c; reason = Optim.Recover.Disconnected } ] ->
      check_int "the severed communication" 0 c.Traffic.Communication.id
  | _ -> Alcotest.fail "exactly one Disconnected shed expected");
  check_int "the row-1 communication survives" 1 r.live;
  check_bits "survival ratio" 0.5 r.survival;
  check_bool "what remains is feasible" true
    r.eval.Routing.Evaluate.feasible;
  check_bool "state agrees with the report" true
    (match Optim.Recover.shed t with
    | [ { reason = Optim.Recover.Disconnected; _ } ] -> true
    | _ -> false)

(* A 2x2 instance whose two corner-to-corner communications must split
   across the two L-paths to fit; killing the top edge forces them onto
   the same surviving L, 4000 Mb/s on 3500-capacity links. *)
let overload_after_kill () =
  let mesh = Noc.Mesh.square 2 in
  let comms = [ comm 0 1 1 2 2 2000.; comm 1 1 1 2 2 2000. ] in
  let solution =
    match Routing.Best.route km mesh comms with
    | Some o ->
        check_bool "baseline splits the pair feasibly" true
          o.Routing.Best.report.Routing.Evaluate.feasible;
        o.Routing.Best.solution
    | None -> Alcotest.fail "the split instance must route"
  in
  (mesh, solution)

let test_overload_sheds_infeasible_overload () =
  let mesh, solution = overload_after_kill () in
  let schedule =
    Noc.Fault.Schedule.make mesh [ Kill_link (link 1 1 1 2) ]
  in
  let _, reports = Optim.Recover.run km solution schedule in
  let r = List.hd reports in
  check_int "rung 5 reached" 5 r.Optim.Recover.rung;
  (match r.shed_now with
  | [ { reason = Optim.Recover.Infeasible_overload; _ } ] -> ()
  | _ ->
      Alcotest.fail
        "full-length negotiation cannot help: Infeasible_overload expected");
  check_int "one communication survives" 1 r.live;
  check_bool "the survivor is feasible" true r.eval.Routing.Evaluate.feasible

let test_zero_budget_sheds_budget_exhausted () =
  (* Same structural overload, but with the negotiation budget clamped to
     zero the rungs are truncated and the shed is typed accordingly. *)
  let mesh, solution = overload_after_kill () in
  let schedule =
    Noc.Fault.Schedule.make mesh [ Kill_link (link 1 1 1 2) ]
  in
  let _, reports = Optim.Recover.run ~budget:0 km solution schedule in
  let r = List.hd reports in
  (match r.Optim.Recover.shed_now with
  | [ { reason = Optim.Recover.Budget_exhausted; _ } ] -> ()
  | _ -> Alcotest.fail "truncated ladder must shed Budget_exhausted");
  check_int "no negotiation pass ran" 0 r.passes;
  check_bool "still ends feasible" true r.eval.Routing.Evaluate.feasible

let test_restore_readmits_shed_comm () =
  (* A 1x3 corridor: killing the only link to the sink sheds the
     communication as Disconnected; restoring it must readmit. *)
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let c = comm 0 1 1 1 3 100. in
  let solution = Routing.Xy.route mesh [ c ] in
  let l = link 1 2 1 3 in
  let schedule =
    Noc.Fault.Schedule.make mesh [ Kill_link l; Restore l ]
  in
  let t, reports = Optim.Recover.run km solution schedule in
  (match reports with
  | [ r1; r2 ] ->
      check_bool "event 1 sheds Disconnected" true
        (match r1.Optim.Recover.shed_now with
        | [ { reason = Optim.Recover.Disconnected; _ } ] -> true
        | _ -> false);
      check_int "event 1 leaves nothing live" 0 r1.live;
      check_bits "survival hits zero" 0. r1.survival;
      check_bool "empty solution is feasible" true
        r1.eval.Routing.Evaluate.feasible;
      check_bool "event 2 readmits the communication" true
        (match r2.Optim.Recover.readmitted with
        | [ c' ] -> c'.Traffic.Communication.id = 0
        | _ -> false);
      check_int "live again" 1 r2.live;
      check_bits "survival restored" 1. r2.survival
  | _ -> Alcotest.fail "two reports expected");
  check_bool "no residual shed" true (Optim.Recover.shed t = []);
  check_bool "the readmitted route is usable" true
    (solution_respects (Optim.Recover.fault t) (Optim.Recover.solution t))

let test_create_validates () =
  let mesh = Noc.Mesh.square 2 in
  let s = Routing.Xy.route mesh [ comm 0 1 1 2 2 100. ] in
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Recover.create: budget < 0") (fun () ->
      ignore (Optim.Recover.create ~budget:(-1) km s));
  Alcotest.check_raises "negative rung3 cap rejected"
    (Invalid_argument "Recover.create: rung3_iterations < 0") (fun () ->
      ignore (Optim.Recover.create ~rung3_iterations:(-1) km s));
  Alcotest.check_raises "mismatched schedule mesh rejected"
    (Invalid_argument "Recover.run: schedule mesh differs from solution mesh")
    (fun () ->
      ignore
        (Optim.Recover.run km s
           (Noc.Fault.Schedule.make (Noc.Mesh.square 3) [])))

(* ------------------------------------------------------------------ *)
(* Registry-shaped entry and spellings *)

let test_engine_deterministic_and_jobs_free () =
  (* The engine derives its schedule from the workload itself, so two
     calls agree bit for bit with no rng in sight. *)
  let mesh, _, comms = mixed_instance ~p:6 ~n:8 42 in
  let a, _ = Optim.Recover.engine ~events:6 km mesh comms in
  let b, _ = Optim.Recover.engine ~events:6 km mesh comms in
  check_bits "same power"
    (Routing.Evaluate.solution km a).Routing.Evaluate.total_power
    (Routing.Evaluate.solution km b).Routing.Evaluate.total_power;
  check_bool "empty workload survives trivially" true
    (Routing.Solution.routes (fst (Optim.Recover.engine km mesh [])) = []);
  check_bool "zero events is the baseline" true
    (Routing.Solution.routes (fst (Optim.Recover.engine ~events:0 km mesh comms))
    <> [])

let test_registry_spellings () =
  let name s = Option.map (fun h -> h.Routing.Heuristic.name) s in
  check_bool "bare rec defaults the event count" true
    (name (Optim.Recover.find "rec") = Some "REC8");
  check_bool "rec12" true (name (Optim.Recover.find "rec12") = Some "REC12");
  check_bool "REC(12)" true
    (name (Optim.Recover.find "REC(12)") = Some "REC12");
  check_bool "rec0 allowed (baseline)" true
    (name (Optim.Recover.find "rec0") = Some "REC0");
  check_bool "recx rejected" true (Optim.Recover.find "recx" = None);
  check_bool "rec-1 rejected" true (Optim.Recover.find "rec-1" = None);
  check_bool "unrelated names rejected" true (Optim.Recover.find "pf8" = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: the figrec campaign is jobs- and crash-invariant *)

let small_figrec = { Harness.Figure.figrec with xs = [ 0.; 3. ] }

let campaign = Campaign_check.campaign ~trials:2 ~seed:7 small_figrec
let contains = Campaign_check.contains

let test_figrec_campaign_invariant () =
  let csv_1, ck_1 = campaign 1 in
  let csv_2, ck_2 = campaign 2 in
  check_string "csv: jobs=1 vs jobs=2" csv_1 csv_2;
  check_string "checkpoint: jobs=1 vs jobs=2" ck_1 ck_2;
  check_bool "csv has the REC power column" true (contains csv_1 "REC_power");
  check_bool "csv has the recover_events column" true
    (contains csv_1 "REC_recover_events");
  check_bool "csv has the recover_sheds column" true
    (contains csv_1 "REC_recover_sheds");
  check_bool "csv has the recover_rung_max column" true
    (contains csv_1 "REC_recover_rung_max")

let test_figrec_kill_and_resume () =
  let fresh, resumed =
    Campaign_check.kill_and_resume ~trials:2 ~seed:7 small_figrec
  in
  check_bool "killed-and-resumed campaign bit-identical" true
    (Campaign_check.rows_equal fresh resumed);
  check_string "resumed CSV byte-identical" (Harness.Render.csv fresh)
    (Harness.Render.csv resumed)

let () =
  Alcotest.run "recover"
    [
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest prop_schedule_deterministic_and_nested;
          QCheck_alcotest.to_alcotest prop_schedule_targets_always_valid;
          Alcotest.test_case "apply/final/play/touched semantics" `Quick
            test_schedule_apply_semantics;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_step_eval_is_full_rescore;
          QCheck_alcotest.to_alcotest prop_run_never_raises_and_ends_feasible;
          Alcotest.test_case "run meters its work" `Quick
            test_run_meters_its_work;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "region cut sheds Disconnected" `Quick
            test_region_cut_sheds_disconnected;
          Alcotest.test_case "overload sheds Infeasible_overload" `Quick
            test_overload_sheds_infeasible_overload;
          Alcotest.test_case "zero budget sheds Budget_exhausted" `Quick
            test_zero_budget_sheds_budget_exhausted;
          Alcotest.test_case "restore readmits a shed communication" `Quick
            test_restore_readmits_shed_comm;
          Alcotest.test_case "validation" `Quick test_create_validates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "engine deterministic without an rng" `Quick
            test_engine_deterministic_and_jobs_free;
          Alcotest.test_case "registry spellings" `Quick
            test_registry_spellings;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figrec campaign jobs-invariant" `Slow
            test_figrec_campaign_invariant;
          Alcotest.test_case "figrec campaign survives a kill-and-resume"
            `Slow test_figrec_kill_and_resume;
        ] );
    ]
