(* Tests for the Pareto design-space layer: dominance/front semantics,
   the measured objectives against their single-objective ground truths
   (power bit-matches Evaluate, Fig. 2's latency ordering), and the
   figpareto campaign's bit-level invariance across worker counts and
   checkpoint kill-and-resume. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let km = Power.Model.kim_horowitz
let bits = Int64.bits_of_float

let obj ?(power = 1.) ?(p50 = 1.) ?(p95 = 1.) ?(slope = 1.) () =
  { Optim.Pareto.power; p50; p95; slope }

let pt name o = { Optim.Pareto.pt_name = name; pt_obj = o }

(* ------------------------------------------------------------------ *)
(* Dominance and front semantics *)

let test_dominates () =
  let d = Optim.Pareto.dominates in
  check_bool "equal points never dominate" false (d (obj ()) (obj ()));
  check_bool "strictly better on one axis" true
    (d (obj ~p95:0.5 ()) (obj ()));
  check_bool "dominated the other way" false (d (obj ()) (obj ~p95:0.5 ()));
  check_bool "trade-off: neither dominates (a)" false
    (d (obj ~power:0.5 ~p50:2. ()) (obj ()));
  check_bool "trade-off: neither dominates (b)" false
    (d (obj ()) (obj ~power:0.5 ~p50:2. ()));
  (* Non-finite coordinates canonicalize to +infinity: a NaN latency
     loses that axis but never poisons the relation. *)
  check_bool "finite beats NaN" true (d (obj ()) (obj ~p50:Float.nan ()));
  check_bool "NaN never dominates" false
    (d (obj ~p50:Float.nan ()) (obj ()));
  check_bool "NaN ties NaN" false
    (d (obj ~p50:Float.nan ()) (obj ~p50:Float.nan ()))

let test_front_preserves_order () =
  let a = pt "a" (obj ~power:1. ~p50:3. ())
  and b = pt "b" (obj ~power:3. ~p50:1. ())
  and dominated = pt "dom" (obj ~power:4. ~p50:4. ()) in
  (match Optim.Pareto.front [ b; dominated; a ] with
  | [ x; y ] ->
      check_string "input order kept (1)" "b" x.Optim.Pareto.pt_name;
      check_string "input order kept (2)" "a" y.Optim.Pareto.pt_name
  | l -> Alcotest.failf "expected 2 survivors, got %d" (List.length l));
  (* Pairwise-equal points all survive: the front of a fixed list is a
     fixed list. *)
  let twin = pt "twin" (obj ()) in
  check_int "equal points both survive" 2
    (List.length (Optim.Pareto.front [ pt "t1" (obj ()); twin ]))

let test_empty_and_singleton_front () =
  check_int "empty front" 0 (List.length (Optim.Pareto.front []));
  check_int "singleton survives" 1
    (List.length (Optim.Pareto.front [ pt "only" (obj ()) ]))

(* ------------------------------------------------------------------ *)
(* Measured objectives vs single-objective ground truths *)

let budget cycles = { Optim.Pareto.cycles; tolerance = None; warmup = None }

let test_measure_power_bitmatches_evaluate () =
  let mesh = Noc.Mesh.square 6 in
  let rng = Traffic.Rng.create 21 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:6
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:900.)
  in
  let sol = Routing.Xy.route mesh comms in
  let report = Routing.Evaluate.solution km sol in
  check_bool "instance is feasible" true report.Routing.Evaluate.feasible;
  match
    Optim.Pareto.measure ~budget:(budget 2_000) ~kills:0 km ~report sol
  with
  | None -> Alcotest.fail "feasible solution must measure"
  | Some o ->
      Alcotest.(check int64)
        "power is Evaluate.of_loads verbatim"
        (bits
           (Routing.Evaluate.of_loads km (Routing.Solution.loads sol))
             .Routing.Evaluate.total_power)
        (bits o.Optim.Pareto.power);
      check_bool "slope is 0 without kills" true
        (bits o.Optim.Pareto.slope = bits 0.);
      check_bool "finite latency quantiles" true
        (Float.is_finite o.Optim.Pareto.p50
        && Float.is_finite o.Optim.Pareto.p95
        && o.Optim.Pareto.p50 <= o.Optim.Pareto.p95)

let test_measure_infeasible_is_none () =
  let mesh = Noc.Mesh.square 4 in
  let c id =
    Traffic.Communication.make ~id
      ~src:(Noc.Coord.make ~row:1 ~col:1)
      ~snk:(Noc.Coord.make ~row:1 ~col:4)
      ~rate:3000.
  in
  let sol = Routing.Xy.route mesh [ c 0; c 1 ] in
  let report = Routing.Evaluate.solution km sol in
  check_bool "instance is infeasible" false report.Routing.Evaluate.feasible;
  check_bool "no objectives for an infeasible routing" true
    (Optim.Pareto.measure ~budget:(budget 1_000) ~kills:0 km ~report sol
    = None)

(* Fig. 2 golden: every heuristic on the worked 2x2 example, simulated.
   BEST (the cheapest feasible outcome — SG's power-56 routing here) must
   not lose to SG on simulated tail latency, and the power axis must be
   the exact figures of the paper (128 for XY, 56 for the single-path
   optimum). XY trades power for latency — its full-frequency links give
   a strictly lower p95 — so the instance's front keeps both points. *)
let test_fig2_latency_ordering () =
  let model = Theory.Example_fig2.model in
  let outcomes =
    Routing.Best.run_all model Theory.Example_fig2.mesh
      Theory.Example_fig2.comms
  in
  let sim (o : Routing.Best.outcome) =
    match
      Optim.Pareto.measure ~budget:(budget 4_000) ~kills:0 model
        ~report:o.report o.solution
    with
    | Some ob -> (o.heuristic.Routing.Heuristic.name, ob)
    | None -> Alcotest.fail "fig2 heuristic must measure"
  in
  let points = List.map sim outcomes in
  let find name = List.assoc name points in
  let xy = find "XY" and sg = find "SG" in
  let best =
    match Routing.Best.best_of outcomes with
    | Some o -> snd (sim o)
    | None -> Alcotest.fail "fig2 instance is feasible"
  in
  let p_xy, p_1mp, _ = Theory.Example_fig2.powers () in
  Alcotest.(check int64)
    "XY power is the paper's 128" (bits p_xy)
    (bits xy.Optim.Pareto.power);
  Alcotest.(check int64)
    "SG power is the paper's 56" (bits p_1mp)
    (bits sg.Optim.Pareto.power);
  List.iter
    (fun (name, (o : Optim.Pareto.objectives)) ->
      check_bool (name ^ " has finite quantiles") true
        (Float.is_finite o.p50 && Float.is_finite o.p95 && o.p50 <= o.p95))
    points;
  check_bool "BEST p95 <= SG p95" true
    (best.Optim.Pareto.p95 <= sg.Optim.Pareto.p95);
  check_bool "power-optimal trades latency: XY p95 < SG p95" true
    (xy.Optim.Pareto.p95 < sg.Optim.Pareto.p95);
  (* Both trade-off points survive the front. *)
  let front =
    Optim.Pareto.front [ pt "XY" xy; pt "BEST" best ]
  in
  check_int "XY and BEST are both non-dominated" 2 (List.length front)

(* ------------------------------------------------------------------ *)
(* figpareto campaign: jobs invariance and kill-and-resume *)

let small_figpareto = { Harness.Figure.figpareto with xs = [ 400.; 800. ] }

let contains = Campaign_check.contains

let test_figpareto_invariance () =
  let campaign = Campaign_check.campaign ~trials:2 ~seed:9 small_figpareto in
  let csv_1, ck_1 = campaign 1 in
  let csv_2, ck_2 = campaign 2 in
  check_string "csv: jobs=1 vs jobs=2" csv_1 csv_2;
  check_string "checkpoint: jobs=1 vs jobs=2" ck_1 ck_2;
  check_bool "csv has the Pareto columns" true
    (contains csv_1 "BEST_p50" && contains csv_1 "BEST_p95"
    && contains csv_1 "BEST_slope" && contains csv_1 "BEST_front"
    && contains csv_1 "SMP_p50")

let test_figpareto_kill_and_resume () =
  let key =
    { Harness.Checkpoint.figure_id = "figpareto"; seed = 9; trials = 2 }
  in
  let fresh, resumed =
    Campaign_check.kill_and_resume ~trials:2 ~seed:9 small_figpareto
      ~inspect:(fun path ->
        check_int "sidecar healed to both rows" 2
          (List.length (Harness.Runner.load_rows ~path key)))
  in
  check_bool "kill-and-resume rows bit-identical" true
    (Campaign_check.rows_equal fresh resumed);
  (* The resumed rows round-trip the Pareto cells through the sidecar. *)
  let names =
    List.map (fun (c : Harness.Runner.column) -> c.name) Harness.Runner.columns
  in
  List.iter
    (fun (row : Harness.Runner.row) ->
      List.iter
        (fun ((_, s) : string * Harness.Runner.stats) ->
          check_bool "front ratio present on a sim figure" true
            (List.assoc "front" (List.combine names s.engine) <> None))
        row.cells)
    resumed.rows

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "pareto"
    [
      ( "front",
        [
          quick "dominates" test_dominates;
          quick "order preserved" test_front_preserves_order;
          quick "empty and singleton" test_empty_and_singleton_front;
        ] );
      ( "measure",
        [
          quick "power bit-matches evaluate" test_measure_power_bitmatches_evaluate;
          quick "infeasible is none" test_measure_infeasible_is_none;
          quick "fig2 latency ordering" test_fig2_latency_ordering;
        ] );
      ( "campaign",
        [
          quick "jobs invariance" test_figpareto_invariance;
          quick "kill and resume" test_figpareto_kill_and_resume;
        ] );
    ]
