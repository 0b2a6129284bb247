(* Differential oracle for the spatial observability probe.

   [Routing.Probe] promises exactness, not approximation: its embedded
   report must bit-match a from-scratch [Routing.Evaluate] of the same
   solution; within every carrying link the occupant power slices must
   sum bitwise to the link power; and the per-communication attributions
   must sum bitwise to the report's total. The audit artifacts built on
   top must be byte-equal whatever worker count produced them. Golden pins
   hold the ASCII heatmaps of the paper's Fig. 2 example to their exact
   rendering. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) (msg ^ " (bit-identical)") (bits a) (bits b)

let report_eq (a : Routing.Evaluate.report) (b : Routing.Evaluate.report) =
  a.feasible = b.feasible
  && bits a.total_power = bits b.total_power
  && bits a.static_power = bits b.static_power
  && bits a.dynamic_power = bits b.dynamic_power
  && a.active_links = b.active_links
  && bits a.max_load = bits b.max_load
  && a.detour_hops = b.detour_hops
  && List.length a.overloaded = List.length b.overloaded
  && List.for_all2
       (fun (la, xa) (lb, xb) -> la = lb && bits xa = bits xb)
       a.overloaded b.overloaded

(* ------------------------------------------------------------------ *)
(* Randomized differential oracle *)

let models =
  [|
    Power.Model.kim_horowitz;
    Power.Model.kim_horowitz_continuous;
    Power.Model.theory ();
  |]

let make_fault rng kind mesh =
  match kind with
  | 0 -> None
  | 1 ->
      Some
        (Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:2 mesh)
  | _ ->
      Some (Noc.Fault.random_degraded ~choose:(Traffic.Rng.int rng) ~n:3 mesh)

let instance_gen =
  QCheck.Gen.(
    quad (int_range 0 1_000_000) (int_range 3 6) (int_range 0 2)
      (int_range 0 2))

(* One probe against its ground truth. Every failure is recorded as a
   message so QCheck can show what broke instead of a bare [false]. *)
let probe_invariants ~what ?fault model (sol : Routing.Solution.t) bad =
  let fail fmt = Printf.ksprintf (fun m -> bad := (what ^ ": " ^ m) :: !bad) fmt in
  let p = Routing.Probe.solution ?fault model sol in
  let fresh = Routing.Evaluate.solution ?fault model sol in
  if not (report_eq p.report fresh) then
    fail "probe report differs from Evaluate.solution";
  (* Grid: indexed by link id; slices of a carrying link sum bitwise to
     its power; an overloaded link's infinite power attributes as 0. *)
  Array.iteri
    (fun id (lp : Routing.Probe.link_probe) ->
      if lp.link_id <> id then fail "grid slot %d holds link %d" id lp.link_id;
      if lp.overloaded then
        List.iter
          (fun (o : Routing.Probe.occupant) ->
            if bits o.power <> bits 0. then
              fail "overloaded link %d occupant power <> 0" id)
          lp.occupants
      else if lp.occupants <> [] then begin
        let slices =
          List.fold_left
            (fun acc (o : Routing.Probe.occupant) -> acc +. o.power)
            0. lp.occupants
        in
        if bits slices <> bits lp.link_power then
          fail "link %d slices %h <> link power %h" id slices lp.link_power
      end)
    p.grid;
  (* Attribution: the rows sum bitwise to the grand total, which equals
     the report total (finite part when infeasible). *)
  let row_sum =
    List.fold_left
      (fun acc (c : Routing.Probe.comm_row) -> acc +. c.attributed)
      0. p.comms
  in
  if bits row_sum <> bits p.attributed_total then
    fail "row sum %h <> attributed_total %h" row_sum p.attributed_total;
  let target =
    if p.report.feasible then p.report.total_power
    else p.report.static_power +. p.report.dynamic_power
  in
  if p.comms <> [] && bits p.attributed_total <> bits target then
    fail "attributed_total %h <> target %h" p.attributed_total target;
  (* Blame: one entry per overloaded link, same order, convictions
     consistent both ways. *)
  let overloaded_ids =
    List.map (fun (l, _) -> Noc.Mesh.link_id p.mesh l) p.report.overloaded
  in
  let blame_ids =
    List.map (fun ((lp : Routing.Probe.link_probe), _) -> lp.link_id) p.blame
  in
  if blame_ids <> overloaded_ids then fail "blame order differs from report";
  List.iter
    (fun ((lp : Routing.Probe.link_probe), occupants) ->
      if not lp.overloaded then fail "blamed link %d not overloaded" lp.link_id;
      if occupants = [] then fail "overloaded link %d convicts nobody" lp.link_id)
    p.blame;
  List.iter
    (fun (c : Routing.Probe.comm_row) ->
      List.iter
        (fun id ->
          if not (List.mem id overloaded_ids) then
            fail "comm %d convicted on healthy link %d"
              c.comm.Traffic.Communication.id id)
        c.convicted)
    p.comms;
  (* Grid-only probe of the same loads: bit-matches [Evaluate.of_loads]
     and carries no attribution. *)
  let loads = Routing.Solution.loads ?fault sol in
  let bare = Routing.Probe.of_loads model loads in
  if not (report_eq bare.report (Routing.Evaluate.of_loads model loads)) then
    fail "of_loads probe differs from Evaluate.of_loads";
  if bare.comms <> [] then fail "of_loads probe has comm rows";
  if bits bare.attributed_total <> bits 0. then
    fail "of_loads attributed_total <> 0"

let prop_probe_matches_evaluate =
  QCheck.Test.make
    ~name:"probe grid and attribution bit-match Evaluate"
    ~count:30
    (QCheck.make instance_gen)
    (fun (seed, p, model_idx, fault_kind) ->
      let mesh = Noc.Mesh.square p in
      let model = models.(model_idx) in
      let rng = Traffic.Rng.create seed in
      let fault = make_fault rng fault_kind mesh in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:8
          ~weight:(Traffic.Workload.weight ~lo:300. ~hi:2800.)
      in
      let bad = ref [] in
      List.iter
        (fun (h : Routing.Heuristic.t) ->
          match h.run ?fault model mesh comms with
          | exception Routing.Repair.No_route _ -> ()
          | sol -> probe_invariants ~what:h.name ?fault model sol bad)
        Routing.Heuristic.all;
      match !bad with
      | [] -> true
      | msgs -> QCheck.Test.fail_report (String.concat "\n" msgs))

let prop_exact_remainder =
  QCheck.Test.make
    ~name:"exact_remainder: partial +. d = total bitwise" ~count:500
    QCheck.(
      make
        Gen.(
          pair (float_bound_inclusive 1e12) (float_bound_inclusive 1e12)))
    (fun (a, b) ->
      let total = a +. b and partial = a in
      let d = Routing.Probe.exact_remainder ~total ~partial in
      bits (partial +. d) = bits total)

(* ------------------------------------------------------------------ *)
(* Golden pins: the paper's Fig. 2 example (2x2 CMP, BW = 4) *)

let fig2_probe sol = Routing.Probe.solution Theory.Example_fig2.model sol

let check_maps name sol ~load ~power =
  check_string (name ^ " load heatmap") load
    (Harness.Render.heatmap ~capacity:4. (Routing.Solution.loads sol));
  check_string (name ^ " power heatmap") power
    (Harness.Render.power_heatmap (fig2_probe sol))

let test_fig2_heatmap_pins () =
  check_maps "xy"
    (Theory.Example_fig2.xy_routing ())
    ~load:"+-9-+\n.   9\n+-.-+\n" ~power:"+-9-+\n.   9\n+-.-+\n";
  check_maps "1mp"
    (Theory.Example_fig2.best_1mp ())
    ~load:"+-3-+\n7   3\n+-7-+\n" ~power:"+-1-+\n9   1\n+-9-+\n";
  check_maps "2mp"
    (Theory.Example_fig2.best_2mp ())
    ~load:"+-5-+\n5   5\n+-5-+\n" ~power:"+-9-+\n9   9\n+-9-+\n"

let test_fig2_attribution_pins () =
  let xy, mp1, mp2 = Theory.Example_fig2.powers () in
  let check name sol expected =
    let p = fig2_probe sol in
    check_bits (name ^ " total") expected p.report.total_power;
    check_bits
      (name ^ " attribution sums to total")
      p.report.total_power p.attributed_total
  in
  check "xy" (Theory.Example_fig2.xy_routing ()) xy;
  check "1mp" (Theory.Example_fig2.best_1mp ()) mp1;
  check "2mp" (Theory.Example_fig2.best_2mp ()) mp2;
  (* The balanced 2-split: 8 mW follow the unit-rate communication, 24 mW
     the rate-3 one, across two and four links respectively. *)
  match (fig2_probe (Theory.Example_fig2.best_2mp ())).comms with
  | [ c0; c1 ] ->
      check_bits "2mp comm 0 slice" 8. c0.attributed;
      check_bits "2mp comm 1 slice" 24. c1.attributed;
      check_int "2mp comm 0 links" 2 (List.length c0.links);
      check_int "2mp comm 1 links" 4 (List.length c1.links)
  | rows -> Alcotest.failf "expected 2 comm rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Audit selection and artifacts *)

let v bp errored shed = { Harness.Audit.best_power = bp; errored; shed }

let test_select_picks_first_worst_and_all_incidents () =
  let verdicts =
    [|
      v (Some 5.) false false;
      v (Some 9.) false true;
      v None true false;
      v (Some 9.) false false;
      v (Some 2.) false true;
    |]
  in
  let selected = Harness.Audit.select verdicts in
  let show (i, kinds) =
    Printf.sprintf "%d:%s" i
      (String.concat "+" (List.map Harness.Audit.kind_label kinds))
  in
  check_string "selection" "1:worst+shed 2:errored 4:shed"
    (String.concat " " (List.map show selected));
  check_string "all-infeasible row keeps its incidents" "0:errored"
    (String.concat " " (List.map show (Harness.Audit.select [| v None true false; v None false false |])))

let small_figrec = { Harness.Figure.figrec with xs = [ 2. ] }

(* One audited campaign; returns the artifact bytes and its validated
   record count. *)
let audited_campaign jobs =
  let dir = Filename.temp_file "manroute-audit" "" in
  Sys.remove dir;
  let _ = Harness.Runner.run ~trials:2 ~seed:7 ~jobs ~audit:dir small_figrec in
  let path =
    Filename.concat dir (small_figrec.Harness.Figure.id ^ "-audit.jsonl")
  in
  let bytes = Campaign_check.read_file path in
  let count =
    match Harness.Audit.validate_file path with
    | Ok n -> n
    | Error e -> Alcotest.failf "audit artifact rejected: %s" e
  in
  Sys.remove path;
  (try Sys.rmdir dir with Sys_error _ -> ());
  (bytes, count)

let test_audit_artifact_jobs_invariant () =
  let b_1, n_1 = audited_campaign 1 in
  let b_2, _ = audited_campaign 2 in
  check_bool "artifact has records" true (n_1 >= 1);
  check_string "audit: jobs=1 vs jobs=2" b_1 b_2

let test_validators_name_line_and_snippet () =
  let path = Filename.temp_file "manroute-audit-bad" ".jsonl" in
  let oc = open_out path in
  output_string oc
    "{\"schema\":\"manroute-audit/1\",\"figure\":\"f\",\"x\":1.0,\"trial\":0,\"kinds\":[],\"cells\":[]}\n\
     {\"schema\":\"wrong/1\",\"figure\":\"f\"}\n";
  close_out oc;
  (match Harness.Audit.validate_file path with
  | Ok _ -> Alcotest.fail "bad schema should have been rejected"
  | Error msg ->
      let contains = Campaign_check.contains msg in
      check_bool "error names the line" true (contains "line 2");
      check_bool "error quotes a snippet" true (contains "wrong/1"));
  Sys.remove path

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "probe"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_probe_matches_evaluate;
          QCheck_alcotest.to_alcotest prop_exact_remainder;
        ] );
      ( "golden",
        [
          Alcotest.test_case "Fig. 2 heatmaps render exactly" `Quick
            test_fig2_heatmap_pins;
          Alcotest.test_case "Fig. 2 attribution pins" `Quick
            test_fig2_attribution_pins;
        ] );
      ( "audit",
        [
          Alcotest.test_case "selection: first worst + every incident"
            `Quick test_select_picks_first_worst_and_all_incidents;
          Alcotest.test_case "artifact jobs-invariant" `Slow
            test_audit_artifact_jobs_invariant;
          Alcotest.test_case "validator errors carry line and snippet"
            `Quick test_validators_name_line_and_snippet;
        ] );
    ]
