(* Differential oracle for the incremental delta-evaluation engine.

   The contract under test is bit-identity, not approximation: after any
   sequence of path add / remove / swap operations — healthy, dead-link
   and degraded-link scenarios alike — [Routing.Delta.report] must equal
   a from-scratch [Routing.Evaluate.of_loads] field by field, floats
   compared through [Int64.bits_of_float]. The same standard applies to
   the speculation journal (rollback restores loads and classification
   state verbatim), to the memoized-table scorer against the direct cost
   computation, and end-to-end: a small campaign must render byte-equal
   CSV rows and checkpoint files at one worker domain or two. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let km = Power.Model.kim_horowitz
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

let loads_eq a b =
  let n = Noc.Mesh.num_links (Noc.Load.mesh a) in
  let ok = ref (Noc.Mesh.num_links (Noc.Load.mesh b) = n) in
  for id = 0 to n - 1 do
    if bits (Noc.Load.get a id) <> bits (Noc.Load.get b id) then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Randomized differential oracle *)

let models =
  [| km; Power.Model.kim_horowitz_continuous; Power.Model.theory () |]

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

(* ~40 operations per instance; after every one the tracked state must
   bit-match both a shadow load vector driven by the same mutations and a
   from-scratch evaluation of the engine's own vector. *)
let prop_delta_matches_from_scratch =
  QCheck.Test.make
    ~name:"delta report bit-matches from-scratch of_loads after every op"
    ~count:40
    (QCheck.make instance_gen)
    (fun (seed, p, model_idx, fault_kind) ->
      let mesh = Noc.Mesh.square p in
      let model = models.(model_idx) in
      let rng = Traffic.Rng.create seed in
      let fault = make_fault rng fault_kind mesh in
      let comms =
        Array.of_list
          (Traffic.Workload.uniform rng mesh ~n:8
             ~weight:(Traffic.Workload.weight ~lo:300. ~hi:2800.))
      in
      let d = Routing.Delta.create ?fault model mesh in
      let shadow = Noc.Load.create ?fault mesh in
      let routed = ref [] in
      let random_path (c : Traffic.Communication.t) =
        Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src:c.src ~snk:c.snk
      in
      let add () =
        let c = comms.(Traffic.Rng.int rng (Array.length comms)) in
        let path = random_path c in
        Routing.Delta.add_path d path c.rate;
        Noc.Load.add_path shadow path c.rate;
        routed := (c, path) :: !routed
      in
      let pick_routed () =
        let i = Traffic.Rng.int rng (List.length !routed) in
        let entry = List.nth !routed i in
        routed := List.filteri (fun j _ -> j <> i) !routed;
        entry
      in
      let remove () =
        let (c : Traffic.Communication.t), path = pick_routed () in
        Routing.Delta.remove_path d path c.rate;
        Noc.Load.remove_path shadow path c.rate
      in
      let swap () =
        let (c : Traffic.Communication.t), path = pick_routed () in
        Routing.Delta.remove_path d path c.rate;
        Noc.Load.remove_path shadow path c.rate;
        let path' = random_path c in
        Routing.Delta.add_path d path' c.rate;
        Noc.Load.add_path shadow path' c.rate;
        routed := (c, path') :: !routed
      in
      let speculate () =
        (* Apply under a mark, check, roll back, check again: the
           speculative state and the restored state must both match a
           from-scratch evaluation. *)
        let c = comms.(Traffic.Rng.int rng (Array.length comms)) in
        let path = random_path c in
        let m = Routing.Delta.mark d in
        Routing.Delta.add_path d path c.rate;
        let spec_ok =
          report_eq (Routing.Delta.report d)
            (Routing.Evaluate.of_loads model (Routing.Delta.loads d))
        in
        Routing.Delta.rollback d m;
        spec_ok
      in
      let ok = ref true in
      for _ = 1 to 40 do
        (match Traffic.Rng.int rng 5 with
        | 0 | 1 -> add ()
        | 2 -> if !routed = [] then add () else remove ()
        | 3 -> if !routed = [] then add () else swap ()
        | _ -> if not (speculate ()) then ok := false);
        if not (loads_eq shadow (Routing.Delta.loads d)) then ok := false;
        let fresh =
          Routing.Evaluate.of_loads model (Routing.Delta.loads d)
        in
        if not (report_eq (Routing.Delta.report d) fresh) then ok := false
      done;
      !ok)

(* Departure-heavy sequences: a long-lived engine spends most of its
   life removing — the memoized level/overload tallies must stay
   bit-identical to a from-scratch rescore through interleaved
   add/remove/mark/rollback, and a full drain must land on exactly the
   fresh empty engine's report. *)
let prop_departure_heavy_tallies_bit_identical =
  QCheck.Test.make
    ~name:"departure-heavy interleavings keep tallies bit-identical"
    ~count:20
    (QCheck.make instance_gen)
    (fun (seed, p, model_idx, fault_kind) ->
      let mesh = Noc.Mesh.square p in
      let model = models.(model_idx) in
      let rng = Traffic.Rng.create seed in
      let fault = make_fault rng fault_kind mesh in
      let comms =
        Array.of_list
          (Traffic.Workload.uniform rng mesh ~n:8
             ~weight:(Traffic.Workload.weight ~lo:100. ~hi:3500.))
      in
      let d = Routing.Delta.create ?fault model mesh in
      let routed = ref [] in
      let random_path (c : Traffic.Communication.t) =
        Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src:c.src
          ~snk:c.snk
      in
      let add () =
        let c = comms.(Traffic.Rng.int rng (Array.length comms)) in
        let path = random_path c in
        Routing.Delta.add_path d path c.rate;
        routed := (c, path) :: !routed
      in
      let remove () =
        let i = Traffic.Rng.int rng (List.length !routed) in
        let (c : Traffic.Communication.t), path = List.nth !routed i in
        routed := List.filteri (fun j _ -> j <> i) !routed;
        Routing.Delta.remove_path d path c.rate
      in
      let spec_remove () =
        (* A speculated departure: mark, remove, check, roll back —
           the removal path must keep tallies canonical even when it
           is later undone. *)
        match !routed with
        | [] -> true
        | ((c : Traffic.Communication.t), path) :: _ ->
            let m = Routing.Delta.mark d in
            Routing.Delta.remove_path d path c.rate;
            let ok =
              report_eq (Routing.Delta.report d)
                (Routing.Evaluate.of_loads model (Routing.Delta.loads d))
            in
            Routing.Delta.rollback d m;
            ok
      in
      let ok = ref true in
      for _ = 1 to 6 do
        add ()
      done;
      for _ = 1 to 40 do
        (match Traffic.Rng.int rng 6 with
        | 0 -> add ()
        | 4 -> if not (spec_remove ()) then ok := false
        | _ -> if !routed = [] then add () else remove ());
        if
          not
            (report_eq (Routing.Delta.report d)
               (Routing.Evaluate.of_loads model (Routing.Delta.loads d)))
        then ok := false
      done;
      (* Full drain: every load snaps to exactly 0 and the memoized
         tallies equal a fresh empty engine's. *)
      List.iter
        (fun ((c : Traffic.Communication.t), path) ->
          Routing.Delta.remove_path d path c.rate)
        !routed;
      if
        not
          (report_eq (Routing.Delta.report d)
             (Routing.Evaluate.of_loads model
                (Noc.Load.create ?fault mesh)))
      then ok := false;
      !ok)

(* The removal-numerics fix in [Noc.Load.add]: removing the very paths
   that were added — in any order — must land every link on bitwise
   [+0.], not a cancellation residue, so [active_links] and the level
   tallies see a truly empty chip. *)
let prop_add_remove_roundtrip_restores_zero =
  QCheck.Test.make
    ~name:"add/remove round-trip restores every load to bitwise 0."
    ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 3 6)))
    (fun (seed, p) ->
      let mesh = Noc.Mesh.square p in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:12
          ~weight:(Traffic.Workload.weight ~lo:100. ~hi:3500.)
      in
      let d = Routing.Delta.create km mesh in
      let routed =
        List.map
          (fun (c : Traffic.Communication.t) ->
            let path =
              Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src:c.src
                ~snk:c.snk
            in
            Routing.Delta.add_path d path c.rate;
            (c, path))
          comms
      in
      (* Remove in a shuffled order: interleaved histories are where
         float cancellation leaves residues. *)
      let arr = Array.of_list routed in
      for i = Array.length arr - 1 downto 1 do
        let j = Traffic.Rng.int rng (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      Array.iter
        (fun ((c : Traffic.Communication.t), path) ->
          Routing.Delta.remove_path d path c.rate)
        arr;
      let loads = Routing.Delta.loads d in
      let all_zero = ref true in
      for id = 0 to Noc.Mesh.num_links mesh - 1 do
        if bits (Noc.Load.get loads id) <> bits 0. then all_zero := false
      done;
      !all_zero
      && report_eq (Routing.Delta.report d)
           (Routing.Evaluate.of_loads km (Noc.Load.create mesh)))

(* ------------------------------------------------------------------ *)
(* Journal semantics *)

let coord row col = Noc.Coord.make ~row ~col

let seeded_engine () =
  let mesh = Noc.Mesh.square 4 in
  let d = Routing.Delta.create km mesh in
  Routing.Delta.add_path d (Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 3 3)) 900.;
  Routing.Delta.add_path d (Noc.Path.yx ~src:(coord 1 1) ~snk:(coord 3 3)) 1400.;
  (mesh, d)

let snapshot d =
  let loads = Routing.Delta.loads d in
  Array.init (Noc.Mesh.num_links (Noc.Load.mesh loads)) (Noc.Load.get loads)

let check_snapshot msg before d =
  let after = snapshot d in
  Array.iteri
    (fun id x ->
      check_bits (Printf.sprintf "%s: link %d" msg id) x after.(id))
    before

let test_rollback_restores_bit_exactly () =
  let _, d = seeded_engine () in
  let before = snapshot d in
  let report_before = Routing.Delta.report d in
  let m = Routing.Delta.mark d in
  Routing.Delta.add_path d (Noc.Path.xy ~src:(coord 1 2) ~snk:(coord 4 4)) 2500.;
  Routing.Delta.remove_path d (Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 3 3)) 900.;
  Routing.Delta.rollback d m;
  check_snapshot "rollback" before d;
  check_bool "report restored bit-exactly" true
    (report_eq report_before (Routing.Delta.report d));
  check_bool "still matches from-scratch" true
    (report_eq (Routing.Delta.report d)
       (Routing.Evaluate.of_loads km (Routing.Delta.loads d)))

let test_rollback_undoes_clamp () =
  (* [Noc.Load.add] clamps near-zero residuals to 0; re-subtracting would
     drift, so rollback must restore the recorded value verbatim. *)
  let _, d = seeded_engine () in
  let before = snapshot d in
  let m = Routing.Delta.mark d in
  (* Exactly cancels the 900 path: the touched links clamp to 0. *)
  Routing.Delta.remove_path d (Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 3 3)) 900.;
  Routing.Delta.rollback d m;
  check_snapshot "clamp rollback" before d

let test_nested_marks () =
  let _, d = seeded_engine () in
  let s0 = snapshot d in
  let m1 = Routing.Delta.mark d in
  Routing.Delta.add_path d (Noc.Path.xy ~src:(coord 2 1) ~snk:(coord 2 4)) 700.;
  let s1 = snapshot d in
  let m2 = Routing.Delta.mark d in
  Routing.Delta.add_path d (Noc.Path.yx ~src:(coord 1 3) ~snk:(coord 4 1)) 1100.;
  Routing.Delta.rollback d m2;
  check_snapshot "inner rollback returns to the outer state" s1 d;
  Routing.Delta.rollback d m1;
  check_snapshot "outer rollback returns to the base state" s0 d

let test_commit_keeps_mutations () =
  let _, d = seeded_engine () in
  let m = Routing.Delta.mark d in
  Routing.Delta.add_path d (Noc.Path.xy ~src:(coord 2 1) ~snk:(coord 2 4)) 700.;
  let s = snapshot d in
  Routing.Delta.commit d m;
  check_snapshot "commit keeps the speculative loads" s d;
  check_bool "committed state matches from-scratch" true
    (report_eq (Routing.Delta.report d)
       (Routing.Evaluate.of_loads km (Routing.Delta.loads d)))

let test_rollback_without_mark_raises () =
  let _, d = seeded_engine () in
  let m = Routing.Delta.mark d in
  Routing.Delta.rollback d m;
  Alcotest.check_raises "no outstanding mark"
    (Invalid_argument "Delta.rollback: no outstanding mark") (fun () ->
      Routing.Delta.rollback d m)

(* ------------------------------------------------------------------ *)
(* Scorer: memoized table vs direct computation *)

(* The scorer against its reference: every lookup must return the very
   float [Power.Model.penalized_cost_capped] computes and count exactly
   one [delta_evals]. The loads probe every branch of the table: below
   and at zero, subnormal, one ulp either side of each frequency level
   (of the capacity in continuous mode), between levels, past capacity
   and far past it, plus one random load; the factors are healthy,
   fixed and random degradations, and dead. *)
let prop_scorer_matches_reference =
  let probe_loads (model : Power.Model.t) =
    let levels =
      match model.mode with
      | Power.Model.Discrete levels -> Array.to_list levels
      | Power.Model.Continuous -> [ model.capacity ]
    in
    [ -1.; -0.; 0.; 4.9e-324; 0x1p-1030; 1e-9; 500.; 1000.5; 1800.; 3600. ]
    @ List.concat_map (fun l -> [ Float.pred l; l; Float.succ l ]) levels
    @ [ 1.5 *. model.capacity; 1e5 ]
  in
  QCheck.Test.make
    ~name:"cost_at bit-equals penalized_cost_capped, one delta_eval each"
    ~count:300
    QCheck.(
      quad (int_bound 2) (int_bound 4) (float_bound_exclusive 1.)
        (float_bound_exclusive 4500.))
    (fun (model_idx, factor_kind, r, random_load) ->
      let model = models.(model_idx) in
      let factor =
        match factor_kind with
        | 0 -> 1.
        | 1 -> 0.75
        | 2 -> 0.5
        | 3 -> if r > 0. then r else 0.5
        | _ -> 0.
      in
      let loads = Noc.Load.create (Noc.Mesh.square 2) in
      let sc = Routing.Delta.scorer model loads in
      let m = Routing.Metrics.current () in
      List.for_all
        (fun load ->
          let before = m.Routing.Metrics.delta_evals in
          let got = Routing.Delta.cost_at sc ~factor load in
          m.Routing.Metrics.delta_evals = before + 1
          && bits got
             = bits (Power.Model.penalized_cost_capped model ~factor load))
        (random_load :: probe_loads model))

let test_occupancy_matches_formula () =
  let mesh = Noc.Mesh.square 3 in
  let l_degraded = Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2) in
  let l_dead = Noc.Mesh.link ~src:(coord 2 1) ~dst:(coord 2 2) in
  let l_healthy = Noc.Mesh.link ~src:(coord 3 1) ~dst:(coord 3 2) in
  let fault =
    Noc.Fault.kill_link
      (Noc.Fault.degrade_link (Noc.Fault.healthy mesh) l_degraded 0.5)
      l_dead
  in
  let loads = Noc.Load.create ~fault mesh in
  Noc.Load.add_link loads l_degraded 400.;
  Noc.Load.add_link loads l_healthy 400.;
  let occ = Routing.Delta.occupancy_link loads ~rate:100. in
  check_bits "healthy: load + rate" 500. (occ ~dead:infinity l_healthy);
  check_bits "degraded: (load + rate) / factor" 1000.
    (occ ~dead:infinity l_degraded);
  check_bits "dead: sentinel" infinity (occ ~dead:infinity l_dead);
  check_bits "dead: PR sentinel" 1e15 (occ ~dead:1e15 l_dead)

let test_delta_evals_counted () =
  let mesh = Noc.Mesh.square 3 in
  let loads = Noc.Load.create mesh in
  let sc = Routing.Delta.scorer km loads in
  let m = Routing.Metrics.current () in
  let before = m.Routing.Metrics.delta_evals in
  ignore (Routing.Delta.cost_at sc ~factor:1. 500.);
  ignore (Routing.Delta.occupancy loads ~dead:infinity ~rate:1. 0);
  check_int "one cost read and one occupancy read count 2" 2
    (m.Routing.Metrics.delta_evals - before)

(* ------------------------------------------------------------------ *)
(* End-to-end: campaign rows are jobs-invariant *)

let small_figf = { Harness.Figure.figf with xs = [ 0.; 2.; 5. ] }

let campaign = Campaign_check.campaign ~trials:3 ~seed:5 small_figf

let test_campaign_jobs_invariant () =
  let csv_1, ck_1 = campaign 1 in
  let csv_2, ck_2 = campaign 2 in
  check_string "csv: jobs=1 vs jobs=2" csv_1 csv_2;
  check_string "checkpoint: jobs=1 vs jobs=2" ck_1 ck_2;
  check_bool "csv reports delta work" true
    (Campaign_check.contains csv_1 "BEST_delta_evals")

let () =
  Alcotest.run "delta"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_delta_matches_from_scratch;
          QCheck_alcotest.to_alcotest
            prop_departure_heavy_tallies_bit_identical;
          QCheck_alcotest.to_alcotest prop_add_remove_roundtrip_restores_zero;
        ] );
      ( "journal",
        [
          Alcotest.test_case "rollback restores bit-exactly" `Quick
            test_rollback_restores_bit_exactly;
          Alcotest.test_case "rollback undoes clamped residuals" `Quick
            test_rollback_undoes_clamp;
          Alcotest.test_case "marks nest LIFO" `Quick test_nested_marks;
          Alcotest.test_case "commit keeps mutations" `Quick
            test_commit_keeps_mutations;
          Alcotest.test_case "rollback without a mark raises" `Quick
            test_rollback_without_mark_raises;
        ] );
      ( "scorer",
        [
          QCheck_alcotest.to_alcotest prop_scorer_matches_reference;
          Alcotest.test_case "occupancy matches the effective formula" `Quick
            test_occupancy_matches_formula;
          Alcotest.test_case "delta_evals counted per read" `Quick
            test_delta_evals_counted;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "campaign rows jobs-invariant" `Slow
            test_campaign_jobs_invariant;
        ] );
    ]
