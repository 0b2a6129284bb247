(* Golden regression fixtures: the paper numbers a cost-table or
   evaluator refactor must not shift.

   Two families of facts are locked here. First, the worked example of
   Figure 2 (unit model, 2x2 mesh): XY pays 128, every Manhattan
   single-path heuristic finds the 1-MP optimum 56, and the two-path
   split reaches 32. Second, the Kim-Horowitz link model of Section 6:
   the constants themselves, the per-level powers, the frequency
   quantization boundaries, and the bit-identity of the memoized
   cost-table lookups against the direct computations — healthy and
   degraded. The degraded-link pins double as the regression tests for
   the fault-capacity consistency fix in [Evaluate] (effective loads in
   the overload report, degraded feasibility in [power_per_rate]). *)

let coord row col = Noc.Coord.make ~row ~col
let comm id src snk rate = Traffic.Communication.make ~id ~src ~snk ~rate
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_near = Alcotest.(check (float 1e-4))
let km = Power.Model.kim_horowitz
let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) (msg ^ " (bit-identical)") (bits a) (bits b)

(* ------------------------------------------------------------------ *)
(* Figure 2 worked example *)

let fig2_model = Power.Model.make ~p_leak:0. ~p0:1. ~alpha:3. ~capacity:4. ()
let fig2_mesh = Noc.Mesh.square 2

let fig2_comms =
  [ comm 0 (coord 1 1) (coord 2 2) 1.; comm 1 (coord 1 1) (coord 2 2) 3. ]

let test_fig2_numbers () =
  check_float "XY pays 128" 128.
    (Routing.Evaluate.power_exn fig2_model
       (Routing.Xy.route fig2_mesh fig2_comms));
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      check_float (h.name ^ " finds the 1-MP optimum 56") 56.
        (Routing.Evaluate.power_exn fig2_model
           (h.run fig2_model fig2_mesh fig2_comms)))
    Routing.Heuristic.manhattan;
  let mp =
    Routing.Multipath.route_split ~s:2 ~base:Routing.Heuristic.sg fig2_model
      fig2_mesh fig2_comms
  in
  check_float "2-MP split reaches 32" 32.
    (Routing.Evaluate.power_exn fig2_model mp);
  let prmp = Routing.Path_remover.route_multipath ~s:2 fig2_mesh fig2_comms in
  check_float "PR-MP reaches 32" 32.
    (Routing.Evaluate.power_exn fig2_model prmp)

(* ------------------------------------------------------------------ *)
(* Kim-Horowitz constants and quantization *)

let test_kh_constants () =
  check_float "P_leak" 16.9 km.Power.Model.p_leak;
  check_float "P0" 5.41 km.Power.Model.p0;
  check_float "alpha" 2.95 km.Power.Model.alpha;
  check_float "capacity" 3500. km.Power.Model.capacity;
  check_float "gbps_scale" 1000. km.Power.Model.gbps_scale;
  (match km.Power.Model.mode with
  | Power.Model.Discrete levels ->
      check_int "three levels" 3 (Array.length levels);
      check_float "level 1 Gb/s" 1000. levels.(0);
      check_float "level 2.5 Gb/s" 2500. levels.(1);
      check_float "level 3.5 Gb/s" 3500. levels.(2)
  | Power.Model.Continuous -> Alcotest.fail "kim_horowitz must be discrete");
  (* The continuous ablation keeps the same constants. *)
  check_float "continuous P_leak" 16.9
    Power.Model.kim_horowitz_continuous.Power.Model.p_leak;
  check_bool "continuous mode" true
    (Power.Model.kim_horowitz_continuous.Power.Model.mode
    = Power.Model.Continuous)

let test_kh_level_powers () =
  (* P(f) = 16.9 + 5.41 (f/1000)^2.95 mW, pinned numerically and locked
     bit-for-bit against the formula. *)
  let formula f = 16.9 +. (5.41 *. Float.pow (f /. 1000.) 2.95) in
  List.iter2
    (fun f expected ->
      check_near (Printf.sprintf "P(%g)" f) expected
        (Power.Model.link_power_exn km f);
      check_bits (Printf.sprintf "P(%g) vs formula" f) (formula f)
        (Power.Model.link_power_exn km f))
    [ 1000.; 2500.; 3500. ]
    [ 22.31; 97.645865; 234.770282 ]

let test_kh_quantization () =
  let req = Power.Model.required_frequency km in
  check_bool "no load" true (req 0. = Some 0.);
  check_bool "snaps up to 1 Gb/s" true (req 1. = Some 1000.);
  check_bool "exact level" true (req 1000. = Some 1000.);
  check_bool "just above a level" true (req 1000.5 = Some 2500.);
  check_bool "mid band" true (req 1800. = Some 2500.);
  check_bool "top level" true (req 3500. = Some 3500.);
  check_bool "over capacity" true (req 3501. = None);
  (* Loads within the comparison tolerance of a level stay on it. *)
  check_bool "tolerance absorbed" true (req (1000. +. 5e-10) = Some 1000.)

(* ------------------------------------------------------------------ *)
(* Memoized table vs direct computation, bit for bit *)

let grid_models =
  [
    ("kim_horowitz", km);
    ("kim_horowitz_continuous", Power.Model.kim_horowitz_continuous);
    ( "unit discrete",
      Power.Model.make
        ~mode:(Power.Model.Discrete [| 1.; 2.; 4. |])
        ~p_leak:0.3 ~p0:1. ~alpha:3. ~capacity:4. () );
    ("theory", Power.Model.theory ());
  ]

let grid_factors = [ 1.; 0.9; 0.75; 0.5; 0.25; 0. ]

let grid_loads (model : Power.Model.t) =
  let cap = model.Power.Model.capacity in
  let around x = [ x -. 1e-10; x; x +. 1e-10; x +. 1e-6; x *. 1.5 ] in
  let levels =
    match model.Power.Model.mode with
    | Power.Model.Discrete l -> Array.to_list l
    | Power.Model.Continuous -> []
  in
  [ -1.; 0.; 1e-12; 0.4; 0.9 ]
  @ List.concat_map around levels
  @ (if Float.is_finite cap then around cap @ [ cap /. 3.; cap *. 10. ]
     else [ 1e6; 1e12 ])

let test_table_matches_direct () =
  List.iter
    (fun (name, model) ->
      let tb = Power.Model.table model in
      List.iter
        (fun factor ->
          List.iter
            (fun load ->
              let direct =
                Power.Model.penalized_cost_capped model ~factor load
              in
              let via_table = Power.Model.table_cost tb ~factor load in
              check_bits
                (Printf.sprintf "%s cost factor=%g load=%g" name factor load)
                direct via_table;
              (* Classification mirrors the direct frequency choice. *)
              let cls = Power.Model.table_classify tb ~factor load in
              let freq =
                Power.Model.required_frequency_capped model ~factor load
              in
              let agrees =
                if load <= 0. then cls = Power.Model.idle_class
                else
                  match freq with
                  | None -> cls = Power.Model.overloaded_class
                  | Some f -> (
                      match model.Power.Model.mode with
                      | Power.Model.Continuous -> cls = 0 && f = load
                      | Power.Model.Discrete levels ->
                          cls >= 0 && levels.(cls) = f)
              in
              check_bool
                (Printf.sprintf "%s class factor=%g load=%g" name factor load)
                true agrees)
            (grid_loads model))
        grid_factors)
    grid_models

(* ------------------------------------------------------------------ *)
(* Degraded-link pins: the fault-capacity consistency fix *)

(* A link degraded to factor 0.5 under Kim-Horowitz has ceiling 1750
   Mb/s, but only the 1000 Mb/s level survives below it: loads in
   (1000, 1750] are infeasible on the degraded link even though the raw
   ceiling would admit them. *)

let degraded_loads mesh factor x =
  let f =
    Noc.Fault.degrade_link
      (Noc.Fault.healthy mesh)
      (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2))
      factor
  in
  let loads = Noc.Load.create ~fault:f mesh in
  Noc.Load.add_link loads (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2)) x;
  (f, loads)

let test_degraded_feasible_same_power () =
  (* Below every surviving level the degraded link costs exactly what a
     healthy one does: degradation shrinks feasibility, never power. *)
  let mesh = Noc.Mesh.square 3 in
  let _, loads = degraded_loads mesh 0.5 900. in
  let healthy = Noc.Load.create mesh in
  Noc.Load.add_link healthy (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2)) 900.;
  let rd = Routing.Evaluate.of_loads km loads in
  let rh = Routing.Evaluate.of_loads km healthy in
  check_bool "feasible while a level survives" true rd.Routing.Evaluate.feasible;
  check_bits "degraded power = healthy power" rh.Routing.Evaluate.total_power
    rd.Routing.Evaluate.total_power;
  (* ... but the report's max load is on the effective (healthy-capacity)
     scale: 900 at factor 0.5 fills the link like 1800 would. *)
  check_float "effective max load" 1800. rd.Routing.Evaluate.max_load;
  check_float "healthy max load untouched" 900. rh.Routing.Evaluate.max_load

let test_degraded_overload_reported_effective () =
  (* 1200 <= 1750 = factor * capacity, yet no usable level carries it:
     the report must call the link overloaded — with its effective load,
     so the entry is comparable to the healthy capacity. *)
  let mesh = Noc.Mesh.square 3 in
  let _, loads = degraded_loads mesh 0.5 1200. in
  let r = Routing.Evaluate.of_loads km loads in
  check_bool "no usable level -> infeasible" false r.Routing.Evaluate.feasible;
  check_int "one overloaded link" 1 (List.length r.Routing.Evaluate.overloaded);
  let _, reported = List.hd r.Routing.Evaluate.overloaded in
  check_float "overload entry is effective" 2400. reported;
  check_float "max load is effective" 2400. r.Routing.Evaluate.max_load;
  check_bool "total power infinite" true
    (r.Routing.Evaluate.total_power = infinity)

let test_dead_link_reported_infinite () =
  let mesh = Noc.Mesh.square 3 in
  let _, loads = degraded_loads mesh 0. 500. in
  let r = Routing.Evaluate.of_loads km loads in
  check_bool "infeasible" false r.Routing.Evaluate.feasible;
  let _, reported = List.hd r.Routing.Evaluate.overloaded in
  check_bool "dead carrying link reads infinity" true (reported = infinity);
  check_bool "max load infinity" true (r.Routing.Evaluate.max_load = infinity)

let test_power_per_rate_degraded_consistent () =
  (* power_per_rate must judge feasibility against the degraded capacity:
     Some (same value as healthy) while a level survives, None beyond. *)
  let mesh = Noc.Mesh.create ~rows:1 ~cols:2 in
  let fault =
    Noc.Fault.degrade_link
      (Noc.Fault.healthy mesh)
      (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2))
      0.5
  in
  let route rate =
    Routing.Xy.route mesh [ comm 0 (coord 1 1) (coord 1 2) rate ]
  in
  let s_ok = route 900. and s_over = route 1200. in
  (match
     ( Routing.Evaluate.power_per_rate ~fault km s_ok,
       Routing.Evaluate.power_per_rate km s_ok )
   with
  | Some degraded, Some healthy ->
      check_bits "feasible degraded rate costs the healthy value" healthy
        degraded
  | _ -> Alcotest.fail "900 Mb/s must be feasible at factor 0.5");
  check_bool "healthy-feasible load" true
    (Routing.Evaluate.power_per_rate km s_over <> None);
  check_bool "degraded-infeasible load" true
    (Routing.Evaluate.power_per_rate ~fault km s_over = None)

(* ------------------------------------------------------------------ *)
(* PR / XYI golden digests

   One MD5 per (heuristic, figure size) over seeded draws, each routed
   healthy and under a 2-kill dead-link fault: every route's cores,
   shares and detour count, then the work counters the call bumped. The
   counters are CSV columns, so the digests pin the work sequence as well
   as the routes. The values were recorded from the reference kernels
   that re-sorted every link per step. *)

let golden_draws_per_x = 16

let golden_digest (fig : Harness.Figure.t) run =
  let mesh = Harness.Figure.mesh in
  let buf = Buffer.create 65536 in
  List.iter
    (fun x ->
      for t = 0 to golden_draws_per_x - 1 do
        let rng =
          Traffic.Rng.of_key ("golden-" ^ fig.id)
            [ Int64.bits_of_float x; Int64.of_int t ]
        in
        let comms = fig.generate rng x in
        let dead =
          Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:2 mesh
        in
        List.iter
          (fun fault ->
            let before = Routing.Metrics.snapshot () in
            let sol = run ?fault mesh comms in
            let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
            List.iter
              (fun (r : Routing.Solution.route) ->
                Printf.bprintf buf "%d:" r.comm.Traffic.Communication.id;
                List.iter
                  (fun (p, share) ->
                    Array.iter
                      (fun (c : Noc.Coord.t) ->
                        Printf.bprintf buf "%d,%d " c.row c.col)
                      (Noc.Path.cores p);
                    Printf.bprintf buf "@%h;" share)
                  r.paths;
                Printf.bprintf buf "+%d\n" (List.length r.detours))
              (Routing.Solution.routes sol);
            Buffer.add_string buf
              (Format.asprintf "|%a\n" Routing.Metrics.pp work))
          [ None; Some dead ]
      done)
    fig.xs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_figures =
  Harness.Figure.[ fig7b; fig7c; fig9a ]

let golden_case name run expected () =
  List.iter2
    (fun (fig : Harness.Figure.t) want ->
      Alcotest.(check string) (name ^ " " ^ fig.id) want (golden_digest fig run))
    golden_figures expected

let golden_pr ?fault mesh comms = Routing.Path_remover.route ?fault mesh comms

let golden_prmp s ?fault mesh comms =
  Routing.Path_remover.route_multipath ~s ?fault mesh comms

let golden_xyi ?fault mesh comms = Routing.Xy_improver.route ?fault mesh km comms

let golden_xyi_sg ?fault mesh comms =
  Routing.Xy_improver.improve ?fault km
    (Routing.Simple_greedy.route ?fault mesh comms)

(* ------------------------------------------------------------------ *)
(* Campaign output digests *)

(* A small audited campaign (2 trials per point on 2 worker domains) of
   each engine figure, digested: the CSV (including the empty-when-absent
   engine columns) and the audit JSONL must not move under a harness
   refactor. *)
let campaign_digests (fig : Harness.Figure.t) =
  let dir = Filename.temp_file "manroute-golden" "" in
  Sys.remove dir;
  let r = Harness.Runner.run ~trials:2 ~jobs:2 ~seed:1 ~audit:dir fig in
  let audit =
    In_channel.with_open_bin
      (Filename.concat dir (fig.id ^ "-audit.jsonl"))
      In_channel.input_all
  in
  ( Digest.to_hex (Digest.string (Harness.Render.csv r)),
    Digest.to_hex (Digest.string audit) )

let campaign_case (fig : Harness.Figure.t) ~csv ~audit =
  Alcotest.test_case fig.id `Quick (fun () ->
      let got_csv, got_audit = campaign_digests fig in
      Alcotest.(check string) (fig.id ^ " CSV") csv got_csv;
      Alcotest.(check string) (fig.id ^ " audit JSONL") audit got_audit)

let () =
  Alcotest.run "golden"
    [
      ( "figure-2",
        [ Alcotest.test_case "XY 128 / 1-MP 56 / 2-MP 32" `Quick
            test_fig2_numbers ] );
      ( "kim-horowitz",
        [
          Alcotest.test_case "constants" `Quick test_kh_constants;
          Alcotest.test_case "level powers" `Quick test_kh_level_powers;
          Alcotest.test_case "quantization boundaries" `Quick
            test_kh_quantization;
        ] );
      ( "cost-table",
        [ Alcotest.test_case "table = direct, bit for bit" `Quick
            test_table_matches_direct ] );
      ( "degraded-links",
        [
          Alcotest.test_case "feasible degraded costs healthy power" `Quick
            test_degraded_feasible_same_power;
          Alcotest.test_case "overload report uses effective loads" `Quick
            test_degraded_overload_reported_effective;
          Alcotest.test_case "dead carrying link reads infinity" `Quick
            test_dead_link_reported_infinite;
          Alcotest.test_case "power_per_rate degraded consistency" `Quick
            test_power_per_rate_degraded_consistent;
        ] );
      ( "pr-xyi-digests",
        [
          Alcotest.test_case "PR" `Quick
            (golden_case "PR" golden_pr
              [ "d0de2dafa5eb7f18389be24d9b34dfd8";
                "b5da5da77158f5d3a31e51d2f19688a8";
                "e324890738ddc16940a106297a1cbefc" ]);
          Alcotest.test_case "PR-MP s=2" `Quick
            (golden_case "PR-MP2" (golden_prmp 2)
              [ "1c6833e2b818c3afda97ed3a0e279d00";
                "0257b402fd330186015d7f966a12b97e";
                "fa0bcd5633649788b402d6baf84b801c" ]);
          Alcotest.test_case "PR-MP s=4" `Quick
            (golden_case "PR-MP4" (golden_prmp 4)
              [ "4fa85ba97973cbf41f51211f1a68c1e5";
                "facb516aa4e50906b404c9772a430ec1";
                "d217094f6705d27d9e402205c3b409eb" ]);
          Alcotest.test_case "XYI" `Quick
            (golden_case "XYI" golden_xyi
              [ "1f43353bd2b83d8a50c009a3ca1763d2";
                "71b2bf5ba861f4bf7ce95b18812b82ea";
                "c8ea2a57ca3b2bb5d9e7af7ff1f0ca15" ]);
          Alcotest.test_case "XYI from SG" `Quick
            (golden_case "XYI-SG" golden_xyi_sg
              [ "6197a616dc85c5ee065dd17b76cc451b";
                "752a6054b8b0ec465f4e651aa6aa2a59";
                "061f122bc5a46c79354e2493f08f3ec9" ]);
        ] );
      ( "campaign-md5",
        Harness.Figure.
          [
            campaign_case figf ~csv:"8717d656fb6ca2f37e0e1e72d6f65f42"
              ~audit:"918e10aedae5634eac877a6431fd32fb";
            campaign_case figpf ~csv:"dc3e42612b10ccc7d6be81f1a0de5f4c"
              ~audit:"b13dbca64b367d34d54ca21b1a59cb5e";
            campaign_case figrec ~csv:"832aadc19a88e37d34bba16c1a03929a"
              ~audit:"cc220ac0ed82625d74c27e27b72478fa";
            campaign_case figpareto ~csv:"19570239e1890ca1792754b823843aae"
              ~audit:"f68e0d33064e905047c6d29ffda2140b";
            campaign_case figserve ~csv:"9684fd4e22dda3a2552924fc6bf923df"
              ~audit:"dcbc24ddad73ceb3d7f2807797f8344b";
          ] );
    ]
