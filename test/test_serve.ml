(* The online routing service (Optim.Online) and the streaming traces
   that drive it (Traffic.Trace).

   Contract layers: traces drawn from a seeded rng are byte-identical
   and well-formed (every arrival departs, events totally ordered);
   after EVERY served event the engine's [eval] is bit-identical to a
   from-scratch [Evaluate.of_loads] rescore of the live solution (the
   differential oracle); idle-link switch-off
   honors the hysteresis — a link sleeps only after [idle_epochs]
   zero-load events, pays the wake penalty on reuse — and a sleeping
   session's [mean_power_nosleep] bit-matches a switch-off-disabled run
   of the same trace, which it strictly undercuts; the registry engine
   is deterministic without an rng; and the figserve campaign stays
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

let check_reports_bit_equal tag (a : Routing.Evaluate.report)
    (b : Routing.Evaluate.report) =
  check_bool (tag ^ ": feasible") a.Routing.Evaluate.feasible
    b.Routing.Evaluate.feasible;
  check_bits (tag ^ ": total power") a.total_power b.total_power;
  check_bits (tag ^ ": static power") a.static_power b.static_power;
  check_bits (tag ^ ": dynamic power") a.dynamic_power b.dynamic_power;
  check_int (tag ^ ": active links") a.active_links b.active_links;
  check_bits (tag ^ ": max load") a.max_load b.max_load;
  check_bool (tag ^ ": overloaded lists") true (a.overloaded = b.overloaded)

let reports_equal (a : Routing.Evaluate.report) (b : Routing.Evaluate.report)
    =
  a.Routing.Evaluate.feasible = b.Routing.Evaluate.feasible
  && bits a.total_power = bits b.total_power
  && bits a.static_power = bits b.static_power
  && bits a.dynamic_power = bits b.dynamic_power
  && a.active_links = b.active_links
  && bits a.max_load = bits b.max_load
  && a.overloaded = b.overloaded

let profile_of_index i =
  let open Traffic.Trace in
  match i mod 4 with
  | 0 -> Poisson
  | 1 -> Diurnal
  | 2 -> Burst
  | _ -> Hotspot

(* ------------------------------------------------------------------ *)
(* Traces: byte-identical from equal seeds, well-formed, total order *)

let gen_trace ?(arrivals = 24) seed profile =
  let rng = Traffic.Rng.of_key "test-serve" [ Int64.of_int seed ] in
  Traffic.Trace.generate rng (Noc.Mesh.square 6) ~profile ~arrivals ~rate:6.
    ~weight:Traffic.Workload.mixed

let prop_trace_deterministic_and_well_formed =
  QCheck.Test.make
    ~name:
      "traces are a pure function of the seed and every arrival departs"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, pidx) ->
      let profile = profile_of_index pidx in
      let a = gen_trace seed profile and b = gen_trace seed profile in
      Traffic.Trace.to_string a = Traffic.Trace.to_string b
      && List.length a = 48
      && (* Non-decreasing timestamps. *)
      (let rec sorted = function
         | { Traffic.Trace.time = t1; _ }
           :: ({ Traffic.Trace.time = t2; _ } :: _ as tl) ->
             t1 <= t2 && sorted tl
         | _ -> true
       in
       sorted a)
      &&
      (* Every arrival has exactly one strictly-later departure. *)
      let arrives =
        List.filter_map
          (fun (e : Traffic.Trace.event) ->
            match e.kind with
            | Traffic.Trace.Arrive c ->
                Some (c.Traffic.Communication.id, e.time)
            | Traffic.Trace.Depart _ -> None)
          a
      in
      List.length arrives = 24
      && List.for_all
           (fun (id, t_in) ->
             let departs =
               List.filter
                 (fun (e : Traffic.Trace.event) ->
                   match e.kind with
                   | Traffic.Trace.Depart i -> i = id
                   | Traffic.Trace.Arrive _ -> false)
                 a
             in
             match departs with
             | [ d ] -> d.Traffic.Trace.time > t_in
             | _ -> false)
           arrives)

let test_trace_validation_and_merge () =
  let mesh = Noc.Mesh.square 4 in
  let rng () = Traffic.Rng.of_key "test-serve-merge" [ 3L ] in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "negative arrivals rejected" true
    (raises (fun () ->
         Traffic.Trace.generate (rng ()) mesh ~profile:Traffic.Trace.Poisson
           ~arrivals:(-1) ~rate:4. ~weight:Traffic.Workload.mixed));
  check_bool "zero rate rejected" true
    (raises (fun () ->
         Traffic.Trace.generate (rng ()) mesh ~profile:Traffic.Trace.Poisson
           ~arrivals:4 ~rate:0. ~weight:Traffic.Workload.mixed));
  check_bool "persistent zero rate rejected" true
    (raises (fun () ->
         Traffic.Trace.persistent (rng ()) ~rate:0.
           [ comm 0 1 1 2 2 100. ]));
  check_int "zero arrivals is the empty trace" 0
    (List.length
       (Traffic.Trace.generate (rng ()) mesh ~profile:Traffic.Trace.Burst
          ~arrivals:0 ~rate:4. ~weight:Traffic.Workload.mixed));
  (* Merge is symmetric under the global (time, id, kind) order. *)
  let a =
    Traffic.Trace.generate (rng ()) mesh ~profile:Traffic.Trace.Poisson
      ~arrivals:8 ~rate:4. ~weight:Traffic.Workload.mixed
  in
  let b =
    Traffic.Trace.generate ~id_base:8 (rng ()) mesh
      ~profile:Traffic.Trace.Diurnal ~arrivals:8 ~rate:4.
      ~weight:Traffic.Workload.mixed
  in
  check_string "merge order independent of argument order"
    (Traffic.Trace.to_string (Traffic.Trace.merge a b))
    (Traffic.Trace.to_string (Traffic.Trace.merge b a));
  check_int "merge keeps every event" 32
    (List.length (Traffic.Trace.merge a b));
  (* CLI spellings round-trip. *)
  List.iter
    (fun (s, p) ->
      check_bool ("profile spelling " ^ s) true
        (Traffic.Trace.profile_of_string s = Some p
        && Traffic.Trace.profile_name p = s))
    Traffic.Trace.profiles;
  check_bool "unknown profile rejected" true
    (Traffic.Trace.profile_of_string "square-wave" = None)

(* ------------------------------------------------------------------ *)
(* The per-event differential oracle *)

let serve_instance seed p =
  let mesh = Noc.Mesh.square p in
  let rng =
    Traffic.Rng.of_key "test-serve-oracle"
      [ Int64.of_int seed; Int64.of_int p ]
  in
  let resident =
    Traffic.Workload.uniform rng mesh ~n:6 ~weight:Traffic.Workload.mixed
  in
  let arrivals = Traffic.Trace.persistent rng ~rate:4. resident in
  let churn =
    Traffic.Trace.generate ~id_base:6 rng mesh
      ~profile:(profile_of_index seed) ~arrivals:10 ~rate:4.
      ~weight:Traffic.Workload.mixed
  in
  (mesh, Traffic.Trace.merge arrivals churn)

let prop_step_eval_is_full_rescore =
  QCheck.Test.make
    ~name:
      "after every event the engine eval bit-matches a from-scratch \
       rescore"
    ~count:10
    QCheck.(pair (int_range 0 1_000_000) (int_range 3 5))
    (fun (seed, p) ->
      let mesh, events = serve_instance seed p in
      let t = Optim.Online.create km mesh in
      List.for_all
        (fun ev ->
          let op = Optim.Online.step t ev in
          let fresh =
            Routing.Evaluate.of_loads km
              (Routing.Solution.loads
                 ~fault:(Noc.Fault.healthy mesh)
                 (Optim.Online.solution t))
          in
          reports_equal op.Optim.Online.eval fresh
          && op.Optim.Online.live
             = List.length (Routing.Solution.routes (Optim.Online.solution t)))
        events)

(* ------------------------------------------------------------------ *)
(* Idle-link switch-off: hysteresis, wake charges, strict saving *)

(* Square 3, row traffic only: same-row endpoints have a unique Manhattan
   path, so the served links are known exactly. With [idle_epochs = 2]:
   event 0 loads row 1 (its 2 forward links), event 1 loads row 3 and
   puts every other link past the hysteresis (sleeps = 24 - 4), event 2
   frees row 1 (idle 1 epoch: NOT yet asleep), event 3 wakes row 2 from
   sleep and finally switches row 1 off, event 4 re-arrives on row 1 and
   pays the wake penalty on both links. *)
let test_sleep_hysteresis_and_wake_charge () =
  let mesh = Noc.Mesh.square 3 in
  let ev time kind = { Traffic.Trace.time; kind } in
  let arr t c = ev t (Traffic.Trace.Arrive c) in
  let events =
    [
      arr 1. (comm 0 1 1 1 3 500.);
      arr 2. (comm 1 3 1 3 3 500.);
      ev 3. (Traffic.Trace.Depart 0);
      arr 4. (comm 2 2 1 2 3 500.);
      arr 5. (comm 3 1 1 1 3 500.);
    ]
  in
  let t =
    Optim.Online.create ~idle_epochs:2 ~wake_penalty:10. km mesh
  in
  let ops = Array.of_list (Optim.Online.serve t events) in
  check_int "event 0: nothing sleeps on the first epoch" 0
    ops.(0).Optim.Online.sleeps;
  check_int "event 1: every never-loaded link sleeps at once" 20
    ops.(1).Optim.Online.sleeps;
  check_int "event 2: freed row 1 is idle but still awake (hysteresis)" 0
    ops.(2).Optim.Online.sleeps;
  check_int "event 2: no wakes on a departure" 0 ops.(2).Optim.Online.wakes;
  check_int "event 3: row 2 traffic wakes its 2 sleeping links" 2
    ops.(3).Optim.Online.wakes;
  check_int "event 3: row 1 crosses idle_epochs and switches off" 2
    ops.(3).Optim.Online.sleeps;
  check_int "event 4: returning row 1 traffic wakes both links" 2
    ops.(4).Optim.Online.wakes;
  check_bits "event 4: wake cost = wake_penalty per woken link"
    (2. *. 10.)
    ops.(4).Optim.Online.power.Optim.Online.wake_cost;
  check_bool "saved leakage flows once links sleep" true
    (ops.(3).Optim.Online.power.Optim.Online.saved_leak > 0.);
  let s = Optim.Online.session t in
  check_int "session wake total" (2 + 2) s.Optim.Online.s_wakes;
  check_int "session sleep total" (20 + 2) s.Optim.Online.s_sleeps

let prop_nosleep_column_bit_matches_disabled_run =
  (* The always-awake column must accumulate the exact expression a
     switch-off-disabled run evaluates: summing the split's already
     rounded idle and saved parts instead loses the identity in the
     last bits (float addition does not distribute over the split). *)
  QCheck.Test.make
    ~name:"mean_power_nosleep bit-matches a sleep-disabled run"
    ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 7))
    (fun (seed, p) ->
      let mesh, events = serve_instance seed p in
      let session sleep =
        let t = Optim.Online.create ~sleep km mesh in
        ignore (Optim.Online.serve t events);
        Optim.Online.session t
      in
      let s = session true and s0 = session false in
      bits s.Optim.Online.mean_power_nosleep
      = bits s0.Optim.Online.mean_power
      && bits s0.mean_power = bits s0.mean_power_nosleep
      && reports_equal s.final s0.final
      && (s.s_sleeps = 0 || s.mean_power < s0.mean_power))

let test_sleep_strictly_cheaper_and_nosleep_column () =
  let mesh, events = serve_instance 42 6 in
  let serve_with sleep =
    let t = Optim.Online.create ~sleep km mesh in
    ignore (Optim.Online.serve t events);
    Optim.Online.session t
  in
  let s = serve_with true and s0 = serve_with false in
  check_bool "the trace makes some link sleep" true
    (s.Optim.Online.s_sleeps > 0);
  check_bits "nosleep column bit-matches the switch-off-disabled run"
    s.Optim.Online.mean_power_nosleep s0.Optim.Online.mean_power;
  check_bool "switch-off is strictly cheaper" true
    (s.Optim.Online.mean_power < s0.Optim.Online.mean_power);
  check_bool "saved ratio is positive" true (s.Optim.Online.saved_ratio > 0.);
  check_bits "a disabled run saves nothing" 0. s0.Optim.Online.saved_ratio;
  check_reports_bit_equal "final report is sleep-independent"
    s.Optim.Online.final s0.Optim.Online.final

(* ------------------------------------------------------------------ *)
(* The ladder's bottom rung: shedding and readmission *)

(* A 1x3 corridor has one path per direction, so two 2000 Mb/s
   arrivals on it overload row 1 (capacity 3500) whatever negotiation
   does. Rung 5 sheds the lightest offender; on a rate tie the first in
   admission order (comm 0) goes, and the departure of comm 1 readmits
   it. *)
let test_rung5_sheds_and_readmits () =
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let ev time kind = { Traffic.Trace.time; kind } in
  let arr t c = ev t (Traffic.Trace.Arrive c) in
  let events =
    [
      arr 1. (comm 0 1 1 1 3 2000.);
      arr 2. (comm 1 1 1 1 3 2000.);
      ev 3. (Traffic.Trace.Depart 1);
    ]
  in
  let t = Optim.Online.create km mesh in
  let ids = List.map (fun (c : Traffic.Communication.t) -> c.id) in
  List.iteri
    (fun i (op, (rung, admitted, live, shed, readmitted, checks)) ->
      let tag s = Printf.sprintf "op %d: %s" i s in
      check_int (tag "rung") rung op.Optim.Online.rung;
      check_bool (tag "admitted") admitted op.admitted;
      check_int (tag "live") live op.live;
      check_bool (tag "shed ids") true
        (ids (List.map (fun (s : Optim.Online.shed) -> s.comm) op.shed_now)
        = shed);
      check_bool (tag "readmitted ids") true (ids op.readmitted = readmitted);
      check_int (tag "feasibility_checks") checks
        op.work.Routing.Metrics.feasibility_checks)
    (List.combine
       (Optim.Online.serve t events)
       [
         (1, true, 1, [], [], 2);
         (5, true, 1, [ 0 ], [], 28);
         (1, false, 1, [], [ 0 ], 2);
       ])

(* ------------------------------------------------------------------ *)
(* Validation, registry spellings, deterministic engine *)

let test_create_and_engine_validate () =
  let mesh = Noc.Mesh.square 3 in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "idle_epochs 0 rejected" true
    (raises (fun () -> Optim.Online.create ~idle_epochs:0 km mesh));
  check_bool "negative wake_penalty rejected" true
    (raises (fun () -> Optim.Online.create ~wake_penalty:(-1.) km mesh));
  check_bool "engine zero rate rejected" true
    (raises (fun () ->
         Optim.Online.engine ~rate:0. km mesh [ comm 0 1 1 2 2 100. ]));
  check_bool "empty workload serves to an empty solution" true
    (Routing.Solution.routes (fst (Optim.Online.engine km mesh [])) = [])

let test_registry_spellings () =
  let name s = Option.map (fun h -> h.Routing.Heuristic.name) s in
  check_bool "bare srv defaults the rate" true
    (name (Optim.Online.find "srv") = Some "SRV8");
  check_bool "srv4" true (name (Optim.Online.find "srv4") = Some "SRV4");
  check_bool "SRV(4)" true (name (Optim.Online.find "SRV(4)") = Some "SRV4");
  check_bool "srv0 rejected (rate >= 1)" true (Optim.Online.find "srv0" = None);
  check_bool "srv-1 rejected" true (Optim.Online.find "srv-1" = None);
  check_bool "srvx rejected" true (Optim.Online.find "srvx" = None);
  check_bool "unrelated names rejected" true (Optim.Online.find "rec8" = None)

let test_engine_deterministic_and_session_stash () =
  let mesh = Noc.Mesh.square 5 in
  let rng = Traffic.Rng.of_key "test-serve-engine" [ 11L ] in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:8 ~weight:Traffic.Workload.mixed
  in
  (* The registry heuristic hands its session over as its note... *)
  let s1, note =
    Routing.Heuristic.run_noted (Optim.Online.heuristic ~rate:4. ()) km mesh
      comms
  in
  let sess1 =
    match note with Some (Optim.Online.Session s) -> Some s | _ -> None
  in
  check_bool "the heuristic's note is its session" true (Option.is_some sess1);
  (* ...drained by the read, so the next run cannot observe it. *)
  check_bool "run_noted drains the slot" true
    (snd (Routing.Heuristic.run_noted Routing.Heuristic.xy km mesh comms)
    = None);
  let s2, sess2 = Optim.Online.engine ~rate:4. km mesh comms in
  check_bool "solutions identical without an rng argument" true
    (Routing.Solution.routes s1 = Routing.Solution.routes s2);
  match (sess1, sess2) with
  | Some a, Some b ->
      check_bits "session power deterministic" a.Optim.Online.mean_power
        b.Optim.Online.mean_power;
      check_bits "session tail-work deterministic" a.Optim.Online.p95_work
        b.Optim.Online.p95_work;
      check_reports_bit_equal "final reports deterministic"
        a.Optim.Online.final b.Optim.Online.final
  | _ -> Alcotest.fail "engine did not return both sessions"

(* ------------------------------------------------------------------ *)
(* End-to-end: the figserve campaign is jobs- and crash-invariant *)

let small_figserve = { Harness.Figure.figserve with xs = [ 2.; 8. ] }

let campaign = Campaign_check.campaign ~trials:2 ~seed:7 small_figserve
let contains = Campaign_check.contains

let test_figserve_campaign_invariant () =
  let csv_1, ck_1 = campaign 1 in
  let csv_2, ck_2 = campaign 2 in
  check_string "csv: jobs=1 vs jobs=2" csv_1 csv_2;
  check_string "checkpoint: jobs=1 vs jobs=2" ck_1 ck_2;
  check_bool "csv has the SRV serve-power column" true
    (contains csv_1 "SRV_srv_power");
  check_bool "csv has the SRV saved-ratio column" true
    (contains csv_1 "SRV_srv_saved");
  check_bool "csv has the SRV tail-work column" true
    (contains csv_1 "SRV_srv_p95");
  check_bool "csv has the no-sleep baseline columns" true
    (contains csv_1 "SRV0_srv_power")

let test_figserve_kill_and_resume () =
  let fresh, resumed =
    Campaign_check.kill_and_resume ~trials:2 ~seed:7 small_figserve
  in
  check_bool "killed-and-resumed campaign bit-identical" true
    (Campaign_check.rows_equal fresh resumed);
  check_string "resumed CSV byte-identical" (Harness.Render.csv fresh)
    (Harness.Render.csv resumed)

let () =
  Alcotest.run "serve"
    [
      ( "trace",
        [
          QCheck_alcotest.to_alcotest prop_trace_deterministic_and_well_formed;
          Alcotest.test_case "validation, merge order, spellings" `Quick
            test_trace_validation_and_merge;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_step_eval_is_full_rescore;
        ] );
      ( "switch-off",
        [
          Alcotest.test_case "hysteresis and wake charges" `Quick
            test_sleep_hysteresis_and_wake_charge;
          QCheck_alcotest.to_alcotest
            prop_nosleep_column_bit_matches_disabled_run;
          Alcotest.test_case "sleeping run strictly cheaper" `Quick
            test_sleep_strictly_cheaper_and_nosleep_column;
        ] );
      ( "ladder",
        [
          Alcotest.test_case
            "rung 5 sheds the first lightest offender, then readmits it"
            `Quick test_rung5_sheds_and_readmits;
        ] );
      ( "engine",
        [
          Alcotest.test_case "validation" `Quick
            test_create_and_engine_validate;
          Alcotest.test_case "registry spellings" `Quick
            test_registry_spellings;
          Alcotest.test_case "engine deterministic, session stashed" `Quick
            test_engine_deterministic_and_session_stash;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figserve campaign jobs-invariant" `Slow
            test_figserve_campaign_invariant;
          Alcotest.test_case "figserve campaign survives a kill-and-resume"
            `Slow test_figserve_kill_and_resume;
        ] );
    ]
