(* Tests for the routing core: solution construction, evaluation, all six
   heuristics (properties and exact values on the paper's example), the XYI
   diversion move, multi-path support and the diagonal lower bound. *)

let coord row col = Noc.Coord.make ~row ~col
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let km = Power.Model.kim_horowitz
let mesh8 = Noc.Mesh.square 8

let comm id src snk rate = Traffic.Communication.make ~id ~src ~snk ~rate

let random_instance seed n weight =
  let rng = Traffic.Rng.create seed in
  Traffic.Workload.uniform rng mesh8 ~n ~weight

(* ------------------------------------------------------------------ *)
(* Solution *)

let test_solution_validation () =
  let c = comm 0 (coord 1 1) (coord 2 2) 10. in
  let good = Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 2 2) in
  let bad = Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 3 3) in
  ignore (Routing.Solution.route_single c good);
  check_bool "endpoint mismatch raises" true
    (try
       ignore (Routing.Solution.route_single c bad);
       false
     with Invalid_argument _ -> true);
  check_bool "share sum checked" true
    (try
       ignore (Routing.Solution.route_multi c [ (good, 3.) ]);
       false
     with Invalid_argument _ -> true);
  check_bool "negative share" true
    (try
       ignore (Routing.Solution.route_multi c [ (good, 11.); (good, -1.) ]);
       false
     with Invalid_argument _ -> true)

let test_solution_loads_and_paths () =
  let c1 = comm 0 (coord 1 1) (coord 2 2) 10.
  and c2 = comm 1 (coord 1 1) (coord 2 2) 4. in
  let xy = Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 2 2)
  and yx = Noc.Path.yx ~src:(coord 1 1) ~snk:(coord 2 2) in
  let s =
    Routing.Solution.make (Noc.Mesh.square 2)
      [
        Routing.Solution.route_single c1 xy;
        Routing.Solution.route_multi c2 [ (xy, 1.); (yx, 3.) ];
      ]
  in
  check_int "num paths" 3 (Routing.Solution.num_paths s);
  check_int "max paths per comm" 2 (Routing.Solution.max_paths_per_comm s);
  let loads = Routing.Solution.loads s in
  let get src dst =
    Noc.Load.get loads
      (Noc.Mesh.link_id (Noc.Mesh.square 2) (Noc.Mesh.link ~src ~dst))
  in
  check_float "shared xy hop" 11. (get (coord 1 1) (coord 1 2));
  check_float "yx hop" 3. (get (coord 1 1) (coord 2 1));
  check_bool "path_of single" true
    (match Routing.Solution.path_of s c1 with
    | Some p -> Noc.Path.equal p xy
    | None -> false);
  check_bool "path_of split is None" true
    (Routing.Solution.path_of s c2 = None);
  (* pp smoke: mentions both communications and their shares. *)
  let printed = Format.asprintf "%a" Routing.Solution.pp s in
  check_bool "pp mentions gamma0" true
    (let rec has i =
       i + 6 <= String.length printed
       && (String.sub printed i 6 = "gamma0" || has (i + 1))
     in
     has 0)

(* ------------------------------------------------------------------ *)
(* Evaluate *)

let test_evaluate_feasibility () =
  let c = comm 0 (coord 1 1) (coord 1 2) 3400. in
  let s =
    Routing.Solution.make mesh8
      [ Routing.Solution.route_single c (Noc.Path.xy ~src:c.src ~snk:c.snk) ]
  in
  let r = Routing.Evaluate.solution km s in
  check_bool "feasible" true r.feasible;
  check_int "one active link" 1 r.active_links;
  check_float "static" 16.9 r.static_power;
  let c2 = comm 1 (coord 1 1) (coord 1 2) 200. in
  let s2 =
    Routing.Solution.make mesh8
      [
        Routing.Solution.route_single c (Noc.Path.xy ~src:c.src ~snk:c.snk);
        Routing.Solution.route_single c2 (Noc.Path.xy ~src:c2.src ~snk:c2.snk);
      ]
  in
  let r2 = Routing.Evaluate.solution km s2 in
  check_bool "overloaded" false r2.feasible;
  check_int "one violation" 1 (List.length r2.overloaded);
  check_bool "power is infinite" true (r2.total_power = infinity);
  check_bool "power option" true (Routing.Evaluate.power km s2 = None)

let test_power_per_rate () =
  let c = comm 0 (coord 1 1) (coord 1 2) 1000. in
  let s =
    Routing.Solution.make mesh8
      [ Routing.Solution.route_single c (Noc.Path.xy ~src:c.src ~snk:c.snk) ]
  in
  (match Routing.Evaluate.power_per_rate km s with
  | Some e ->
      let expected = (16.9 +. (5.41 *. Float.pow 1. 2.95)) /. 1000. in
      Alcotest.(check (float 1e-9)) "mW per Mb/s" expected e
  | None -> Alcotest.fail "feasible");
  let overload = comm 1 (coord 1 1) (coord 1 2) 3400. in
  let s2 =
    Routing.Solution.make mesh8
      [
        Routing.Solution.route_single c (Noc.Path.xy ~src:c.src ~snk:c.snk);
        Routing.Solution.route_single overload
          (Noc.Path.xy ~src:overload.src ~snk:overload.snk);
      ]
  in
  check_bool "infeasible yields None" true
    (Routing.Evaluate.power_per_rate km s2 = None)

let test_penalized_equals_power_when_feasible () =
  let comms = random_instance 21 8 Traffic.Workload.small in
  let s = Routing.Xy.route mesh8 comms in
  let r = Routing.Evaluate.solution km s in
  if r.feasible then
    check_float "penalized agrees" r.total_power
      (Routing.Evaluate.penalized km (Routing.Solution.loads s))

(* ------------------------------------------------------------------ *)
(* Figure 2 exact values, heuristic by heuristic *)

let fig2_model = Power.Model.make ~p_leak:0. ~p0:1. ~alpha:3. ~capacity:4. ()
let fig2_mesh = Noc.Mesh.square 2

let fig2_comms =
  [ comm 0 (coord 1 1) (coord 2 2) 1.; comm 1 (coord 1 1) (coord 2 2) 3. ]

let test_fig2_xy () =
  check_float "XY pays 128" 128.
    (Routing.Evaluate.power_exn fig2_model (Routing.Xy.route fig2_mesh fig2_comms))

let test_fig2_manhattan_heuristics () =
  (* Every Manhattan heuristic must find the optimal 1-MP split (56). *)
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let s = h.run fig2_model fig2_mesh fig2_comms in
      check_float (h.name ^ " finds 56") 56.
        (Routing.Evaluate.power_exn fig2_model s))
    Routing.Heuristic.manhattan

let test_fig2_two_path_split () =
  let s =
    Routing.Multipath.route_split ~s:2 ~base:Routing.Heuristic.sg fig2_model
      fig2_mesh fig2_comms
  in
  check_float "2-MP reaches 32" 32. (Routing.Evaluate.power_exn fig2_model s)

(* ------------------------------------------------------------------ *)
(* Generic heuristic properties *)

let solution_is_wellformed comms s =
  let routed = Routing.Solution.routes s in
  List.length routed = List.length comms
  && List.for_all2
       (fun (r : Routing.Solution.route) (c : Traffic.Communication.t) ->
         r.comm.Traffic.Communication.id = c.Traffic.Communication.id
         || List.exists
              (fun (r : Routing.Solution.route) ->
                Traffic.Communication.equal r.comm c)
              routed)
       routed comms
  && List.for_all
       (fun (r : Routing.Solution.route) ->
         List.for_all
           (fun (p, share) ->
             share > 0.
             && Noc.Path.length p = Traffic.Communication.length r.comm)
           r.paths)
       routed

let prop_heuristic_wellformed (h : Routing.Heuristic.t) =
  QCheck.Test.make
    ~name:(h.name ^ " produces a complete single-path Manhattan solution")
    ~count:40
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 0 10_000))
              (QCheck.make QCheck.Gen.(int_range 1 25)))
    (fun (seed, n) ->
      let comms = random_instance seed n Traffic.Workload.mixed in
      let s = h.run km mesh8 comms in
      Routing.Solution.max_paths_per_comm s = 1
      && solution_is_wellformed comms s)

let prop_loads_match_rates (h : Routing.Heuristic.t) =
  QCheck.Test.make
    ~name:(h.name ^ ": total load = sum of rate * length") ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let comms = random_instance seed 12 Traffic.Workload.small in
      let s = h.run km mesh8 comms in
      let expected =
        List.fold_left
          (fun acc (c : Traffic.Communication.t) ->
            acc
            +. (c.rate *. float_of_int (Traffic.Communication.length c)))
          0. comms
      in
      Float.abs (Noc.Load.total (Routing.Solution.loads s) -. expected)
      < 1e-6 *. expected)

let test_xy_routes_are_xy () =
  let comms = random_instance 5 10 Traffic.Workload.small in
  let s = Routing.Xy.route mesh8 comms in
  List.iter
    (fun (r : Routing.Solution.route) ->
      match r.paths with
      | [ (p, _) ] ->
          check_bool "is the XY path" true
            (Noc.Path.equal p
               (Noc.Path.xy ~src:r.comm.Traffic.Communication.src
                  ~snk:r.comm.Traffic.Communication.snk))
      | _ -> Alcotest.fail "single path expected")
    (Routing.Solution.routes s)

let test_two_bend_paths_have_le_two_bends () =
  let comms = random_instance 9 15 Traffic.Workload.mixed in
  let s = Routing.Two_bend.route mesh8 km comms in
  List.iter
    (fun (r : Routing.Solution.route) ->
      match r.paths with
      | [ (p, _) ] -> check_bool "<= 2 bends" true (Noc.Path.bends p <= 2)
      | _ -> Alcotest.fail "single path expected")
    (Routing.Solution.routes s)

let test_single_comm_straight_line () =
  (* A lone flat communication has a unique path; every heuristic must
     return it. *)
  let comms = [ comm 0 (coord 3 1) (coord 3 6) 500. ] in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let s = h.run km mesh8 comms in
      match Routing.Solution.routes s with
      | [ { paths = [ (p, _) ]; _ } ] ->
          check_int (h.name ^ " straight") 0 (Noc.Path.bends p)
      | _ -> Alcotest.fail "unique route expected")
    Routing.Heuristic.all

let test_two_equal_comms_split_apart () =
  (* Two identical heavy communications between opposite corners must not
     be stacked on one path. IG is excluded: its per-step relaxed bound
     (Section 5.2) cannot see that the two symmetric forks differ only in
     the reachability of a loaded last-step link, so it may legitimately
     tie-break into the overload. *)
  let comms =
    [ comm 0 (coord 1 1) (coord 3 3) 2000.; comm 1 (coord 1 1) (coord 3 3) 2000. ]
  in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let s = h.run km mesh8 comms in
      let r = Routing.Evaluate.solution km s in
      check_bool (h.name ^ " feasible") true r.feasible)
    [ Routing.Heuristic.sg; Routing.Heuristic.tb; Routing.Heuristic.xyi;
      Routing.Heuristic.pr ];
  (* ... while XY stacks them and fails. *)
  let r = Routing.Evaluate.solution km (Routing.Xy.route mesh8 comms) in
  check_bool "XY infeasible" false r.feasible

(* ------------------------------------------------------------------ *)
(* XYI diversion move *)

(* [divert] takes a hop index; these name the hop by its link. *)
let hop_of p l =
  let ids = Noc.Path.ids mesh8 p and id = Noc.Mesh.link_id mesh8 l in
  let rec go k =
    if k >= Array.length ids then -1 else if ids.(k) = id then k else go (k + 1)
  in
  go 0

let divert_link p l = Routing.Xy_improver.divert p (hop_of p l)
let mem_link p l = Array.mem (Noc.Mesh.link_id mesh8 l) (Noc.Path.ids mesh8 p)

let test_divert_vertical () =
  (* Path (1,1)->(1,2)->(2,2)->(3,2)->(3,3); divert off (2,2)->(3,2). *)
  let p =
    Noc.Path.of_cores
      [| coord 1 1; coord 1 2; coord 2 2; coord 3 2; coord 3 3 |]
  in
  let l = Noc.Mesh.link ~src:(coord 2 2) ~dst:(coord 3 2) in
  match divert_link p l with
  | Some p' ->
      check_bool "avoids link" false (mem_link p' l);
      check_int "same length" (Noc.Path.length p) (Noc.Path.length p');
      check_bool "same endpoints" true
        (Noc.Coord.equal (Noc.Path.src p') (coord 1 1)
        && Noc.Coord.equal (Noc.Path.snk p') (coord 3 3))
  | None -> Alcotest.fail "diversion exists"

let test_divert_horizontal () =
  let p =
    Noc.Path.of_cores
      [| coord 1 1; coord 1 2; coord 2 2; coord 3 2; coord 3 3 |]
  in
  let l = Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2) in
  match divert_link p l with
  | Some p' ->
      check_bool "avoids link" false (mem_link p' l);
      check_int "same length" (Noc.Path.length p) (Noc.Path.length p')
  | None -> Alcotest.fail "diversion exists"

let test_divert_unavailable () =
  (* Vertical link on the source column: no earlier column to descend in. *)
  let p = Noc.Path.yx ~src:(coord 1 1) ~snk:(coord 3 3) in
  let l = Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 2 1) in
  check_bool "no diversion" true (divert_link p l = None);
  (* Horizontal link with no later vertical hop. *)
  let p = Noc.Path.yx ~src:(coord 1 1) ~snk:(coord 3 3) in
  let l = Noc.Mesh.link ~src:(coord 3 1) ~dst:(coord 3 2) in
  check_bool "no diversion after last descent" true (divert_link p l = None);
  (* Link not on the path at all: no hop index names it. *)
  let l = Noc.Mesh.link ~src:(coord 5 5) ~dst:(coord 5 6) in
  check_bool "absent link" true (divert_link p l = None);
  check_bool "hop past the end" true
    (Routing.Xy_improver.divert p (Noc.Path.length p) = None)

let prop_divert_valid_all_quadrants =
  QCheck.Test.make ~name:"divert keeps Manhattan validity in all quadrants"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 8) (int_range 1 8) (int_range 1 8) (int_range 1 8)))
    (fun (r1, c1, r2, c2) ->
      QCheck.assume (r1 <> r2 && c1 <> c2);
      let src = coord r1 c1 and snk = coord r2 c2 in
      let rng = Traffic.Rng.create ((r1 * 31) + c1 + (r2 * 7) + c2) in
      let p = Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src ~snk in
      let ids = Noc.Path.ids mesh8 p in
      List.for_all
        (fun k ->
          match Routing.Xy_improver.divert p k with
          | None -> true
          | Some p' ->
              (not (Array.mem ids.(k) (Noc.Path.ids mesh8 p')))
              && Noc.Path.length p' = Noc.Path.length p
              && Noc.Coord.equal (Noc.Path.src p') src
              && Noc.Coord.equal (Noc.Path.snk p') snk)
        (List.init (Array.length ids) Fun.id))

let test_xyi_never_worse_than_xy () =
  for seed = 0 to 20 do
    let comms = random_instance seed 20 Traffic.Workload.mixed in
    let pen s = Routing.Evaluate.penalized km (Routing.Solution.loads s) in
    let xy = pen (Routing.Xy.route mesh8 comms)
    and xyi = pen (Routing.Xy_improver.route mesh8 km comms) in
    check_bool "xyi <= xy in penalized cost" true (xyi <= xy +. 1e-6)
  done

let test_xyi_zero_moves_is_xy () =
  let comms = random_instance 19 15 Traffic.Workload.mixed in
  let a = Routing.Xy_improver.route ~max_moves:0 mesh8 km comms
  and b = Routing.Xy.route mesh8 comms in
  let pen s = Routing.Evaluate.penalized km (Routing.Solution.loads s) in
  check_float "no moves = plain XY" (pen b) (pen a)

let test_xyi_deterministic () =
  let comms = random_instance 23 20 Traffic.Workload.mixed in
  let run () =
    Routing.Evaluate.penalized km
      (Routing.Solution.loads (Routing.Xy_improver.route mesh8 km comms))
  in
  check_float "deterministic" (run ()) (run ())

let test_improve_never_hurts_any_heuristic () =
  let comms = random_instance 41 20 Traffic.Workload.mixed in
  let pen s = Routing.Evaluate.penalized km (Routing.Solution.loads s) in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let base = h.run km mesh8 comms in
      let refined = Routing.Xy_improver.improve km base in
      check_bool (h.name ^ " refinement monotone") true
        (pen refined <= pen base +. 1e-6))
    Routing.Heuristic.all

let test_improve_rejects_multipath () =
  let c = comm 0 (coord 1 1) (coord 2 2) 10. in
  let sol =
    Routing.Solution.make mesh8
      [
        Routing.Solution.route_multi c
          [
            (Noc.Path.xy ~src:c.src ~snk:c.snk, 4.);
            (Noc.Path.yx ~src:c.src ~snk:c.snk, 6.);
          ];
      ]
  in
  check_bool "raises" true
    (try
       ignore (Routing.Xy_improver.improve km sol);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* PR-specific behaviour *)

let test_pr_deterministic () =
  let comms = random_instance 29 20 Traffic.Workload.mixed in
  let run () =
    Routing.Evaluate.penalized km
      (Routing.Solution.loads (Routing.Path_remover.route mesh8 comms))
  in
  check_float "deterministic" (run ()) (run ())

let test_pr_single_paths () =
  let comms = random_instance 33 25 Traffic.Workload.mixed in
  let s = Routing.Path_remover.route mesh8 comms in
  check_int "single path each" 1 (Routing.Solution.max_paths_per_comm s)

let test_pr_spreads_two_heavy_comms () =
  (* PR must separate two heavy same-pair communications (its whole point). *)
  let comms =
    [ comm 0 (coord 1 1) (coord 2 2) 3000.; comm 1 (coord 1 1) (coord 2 2) 3000. ]
  in
  let s = Routing.Path_remover.route mesh8 comms in
  let r = Routing.Evaluate.solution km s in
  check_bool "feasible" true r.feasible;
  check_int "four links" 4 r.active_links

(* ------------------------------------------------------------------ *)
(* BEST *)

let test_best_picks_minimum () =
  let comms = random_instance 77 10 Traffic.Workload.small in
  let outcomes = Routing.Best.run_all km mesh8 comms in
  check_int "six outcomes" 6 (List.length outcomes);
  match Routing.Best.best_of outcomes with
  | None -> Alcotest.fail "instance should be solvable"
  | Some best ->
      List.iter
        (fun (o : Routing.Best.outcome) ->
          if o.report.feasible then
            check_bool "best is minimal" true
              (best.report.total_power <= o.report.total_power +. 1e-9))
        outcomes

let test_best_none_when_all_fail () =
  (* Saturate a 1xN corridor so no routing can fit. *)
  let m = Noc.Mesh.create ~rows:1 ~cols:4 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 4) 3000.; comm 1 (coord 1 1) (coord 1 4) 3000. ]
  in
  check_bool "no feasible outcome" true
    (Routing.Best.route km m comms = None)

(* ------------------------------------------------------------------ *)
(* Multipath *)

let test_pr_multipath_s1_equals_route () =
  let comms = random_instance 13 15 Traffic.Workload.mixed in
  let a = Routing.Path_remover.route mesh8 comms
  and b = Routing.Path_remover.route_multipath ~s:1 mesh8 comms in
  let p s = Routing.Evaluate.penalized km (Routing.Solution.loads s) in
  check_float "same penalized cost" (p a) (p b)

let prop_pr_multipath_wellformed =
  QCheck.Test.make ~name:"PR-MP respects the path bound and the rates"
    ~count:25
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 0 5_000))
              (QCheck.make QCheck.Gen.(int_range 2 4)))
    (fun (seed, s) ->
      let comms = random_instance seed 10 Traffic.Workload.mixed in
      let sol = Routing.Path_remover.route_multipath ~s mesh8 comms in
      let expected =
        List.fold_left
          (fun acc (c : Traffic.Communication.t) ->
            acc +. (c.rate *. float_of_int (Traffic.Communication.length c)))
          0. comms
      in
      Routing.Solution.max_paths_per_comm sol <= s
      && Float.abs (Noc.Load.total (Routing.Solution.loads sol) -. expected)
         < 1e-6 *. expected)

let test_pr_multipath_reaches_fig2_optimum () =
  (* On the Figure 2 instance both communications have exactly two paths,
     so PR-MP with s = 2 keeps them and the even split yields the paper's
     2-MP optimum of 32 (vs 56 for the best single-path routing). *)
  let mp = Routing.Path_remover.route_multipath ~s:2 fig2_mesh fig2_comms in
  check_int "two paths kept" 2 (Routing.Solution.max_paths_per_comm mp);
  check_float "2-MP optimum" 32. (Routing.Evaluate.power_exn fig2_model mp)

let test_split_evenly () =
  let c = comm 0 (coord 1 1) (coord 2 3) 9. in
  let parts = Routing.Multipath.split_evenly ~s:3 c in
  check_int "three parts" 3 (List.length parts);
  List.iter
    (fun (p : Traffic.Communication.t) ->
      check_float "third" 3. p.rate;
      check_int "same id" 0 p.id)
    parts

let prop_split_preserves_loads =
  QCheck.Test.make
    ~name:"split-and-merge yields the same total load volume" ~count:30
    (QCheck.make QCheck.Gen.(int_range 0 5_000))
    (fun seed ->
      let comms = random_instance seed 8 Traffic.Workload.mixed in
      let s =
        Routing.Multipath.route_split ~s:3 ~base:Routing.Heuristic.sg km mesh8
          comms
      in
      let expected =
        List.fold_left
          (fun acc (c : Traffic.Communication.t) ->
            acc +. (c.rate *. float_of_int (Traffic.Communication.length c)))
          0. comms
      in
      Routing.Solution.max_paths_per_comm s <= 3
      && Float.abs (Noc.Load.total (Routing.Solution.loads s) -. expected)
         < 1e-6 *. expected)

let prop_diagonal_bound_below_any_feasible_dynamic =
  QCheck.Test.make
    ~name:"diagonal spread lower-bounds every heuristic's dynamic power"
    ~count:30
    (QCheck.make QCheck.Gen.(int_range 0 5_000))
    (fun seed ->
      let model = Power.Model.kim_horowitz_continuous in
      let comms = random_instance seed 10 Traffic.Workload.small in
      let bound = Routing.Multipath.diagonal_lower_bound model mesh8 comms in
      List.for_all
        (fun (o : Routing.Best.outcome) ->
          (not o.report.feasible)
          || bound <= o.report.dynamic_power +. 1e-6)
        (Routing.Best.run_all model mesh8 comms))

(* ------------------------------------------------------------------ *)
(* Annealer *)

let test_annealer_deterministic () =
  let comms = random_instance 8 10 Traffic.Workload.small in
  let run () =
    Routing.Evaluate.penalized km
      (Routing.Solution.loads
         (Routing.Annealer.route ~seed:5 ~iterations:3000 ~restarts:1 mesh8 km
            comms))
  in
  check_float "same seed, same result" (run ()) (run ())

let test_annealer_empty () =
  let s = Routing.Annealer.route mesh8 km [] in
  check_int "no routes" 0 (List.length (Routing.Solution.routes s))

let test_annealer_never_worse_than_sg () =
  (* SA starts from SG and keeps the best state: it can only improve. *)
  for seed = 0 to 4 do
    let comms = random_instance seed 15 Traffic.Workload.mixed in
    let pen s = Routing.Evaluate.penalized km (Routing.Solution.loads s) in
    let sg = pen (Routing.Simple_greedy.route mesh8 comms)
    and sa =
      pen
        (Routing.Annealer.route ~iterations:4000 ~restarts:1 mesh8 km comms)
    in
    check_bool "sa <= sg" true (sa <= sg +. 1e-6)
  done

let test_annealer_close_to_exact () =
  let mesh = Noc.Mesh.square 3 in
  let rng = Traffic.Rng.create 17 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:4
      ~weight:(Traffic.Workload.weight ~lo:500. ~hi:1500.)
  in
  match Optim.Exact.route km mesh comms with
  | Optim.Exact.Optimal (_, opt) ->
      let sa = Routing.Annealer.route ~iterations:20_000 mesh km comms in
      let r = Routing.Evaluate.solution km sa in
      check_bool "feasible" true r.feasible;
      check_bool "within 5% of optimal" true
        (r.total_power <= opt *. 1.05 +. 1e-6)
  | _ -> Alcotest.fail "small instance should be solvable"

(* ------------------------------------------------------------------ *)
(* Forwarding tables *)

let test_tables_roundtrip () =
  let comms = random_instance 3 15 Traffic.Workload.small in
  let sol = Routing.Path_remover.route mesh8 comms in
  let tables = Routing.Tables.compile_exn sol in
  List.iter
    (fun (r : Routing.Solution.route) ->
      match (Routing.Tables.walk tables r.comm, r.paths) with
      | Ok walked, [ (p, _) ] ->
          check_bool "table walk realizes the routed path" true
            (Noc.Path.equal walked p)
      | Error m, _ -> Alcotest.fail m
      | _ -> Alcotest.fail "single path expected")
    (Routing.Solution.routes sol);
  (* Entry count: one per hop plus one ejection per communication. *)
  let expected =
    List.fold_left
      (fun acc c -> acc + Traffic.Communication.length c + 1)
      0 comms
  in
  check_int "total entries" expected (Routing.Tables.total_entries tables)

let test_tables_lookup_and_ports () =
  let c = comm 0 (coord 1 1) (coord 2 3) 100. in
  let sol =
    Routing.Solution.make mesh8
      [ Routing.Solution.route_single c (Noc.Path.xy ~src:c.src ~snk:c.snk) ]
  in
  let t = Routing.Tables.compile_exn sol in
  check_bool "east at source" true
    (Routing.Tables.lookup t ~core:(coord 1 1) ~comm_id:0
    = Some (Routing.Tables.Forward Noc.Mesh.East));
  check_bool "south at the bend" true
    (Routing.Tables.lookup t ~core:(coord 1 3) ~comm_id:0
    = Some (Routing.Tables.Forward Noc.Mesh.South));
  check_bool "eject at sink" true
    (Routing.Tables.lookup t ~core:(coord 2 3) ~comm_id:0
    = Some Routing.Tables.Eject);
  check_bool "no entry elsewhere" true
    (Routing.Tables.lookup t ~core:(coord 5 5) ~comm_id:0 = None);
  check_int "entries at source" 1
    (List.length (Routing.Tables.entries_at t (coord 1 1)))

let test_tables_reject_multipath () =
  let c = comm 0 (coord 1 1) (coord 2 2) 10. in
  let sol =
    Routing.Solution.make mesh8
      [
        Routing.Solution.route_multi c
          [
            (Noc.Path.xy ~src:c.src ~snk:c.snk, 5.);
            (Noc.Path.yx ~src:c.src ~snk:c.snk, 5.);
          ];
      ]
  in
  check_bool "compile fails" true
    (match Routing.Tables.compile sol with Error _ -> true | Ok _ -> false)

let test_tables_xy_is_destination_deterministic () =
  let comms = random_instance 4 20 Traffic.Workload.small in
  let t = Routing.Tables.compile_exn (Routing.Xy.route mesh8 comms) in
  check_int "xy has no destination conflicts" 0
    (Routing.Tables.destination_conflicts t)

let prop_tables_walk_all_heuristics =
  QCheck.Test.make
    ~name:"compiled tables realize every heuristic's routed paths" ~count:15
    (QCheck.make QCheck.Gen.(int_range 0 5_000))
    (fun seed ->
      let comms = random_instance seed 8 Traffic.Workload.small in
      List.for_all
        (fun (h : Routing.Heuristic.t) ->
          let sol = h.run km mesh8 comms in
          let t = Routing.Tables.compile_exn sol in
          List.for_all
            (fun (r : Routing.Solution.route) ->
              match Routing.Tables.walk t r.comm with
              | Ok _ -> true
              | Error _ -> false)
            (Routing.Solution.routes sol))
        Routing.Heuristic.all)

(* ------------------------------------------------------------------ *)
(* Heuristic registry *)

let test_registry () =
  check_int "six heuristics" 6 (List.length Routing.Heuristic.all);
  check_int "five manhattan" 5 (List.length Routing.Heuristic.manhattan);
  check_bool "find xyi" true
    (match Routing.Heuristic.find "xyi" with
    | Some h -> h.name = "XYI"
    | None -> false);
  check_bool "find unknown" true (Routing.Heuristic.find "nope" = None)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "routing"
    [
      ( "solution",
        [
          quick "validation" test_solution_validation;
          quick "loads and paths" test_solution_loads_and_paths;
        ] );
      ( "evaluate",
        [
          quick "feasibility" test_evaluate_feasibility;
          quick "power per rate" test_power_per_rate;
          quick "penalized agrees" test_penalized_equals_power_when_feasible;
        ] );
      ( "figure 2",
        [
          quick "xy = 128" test_fig2_xy;
          quick "manhattan heuristics = 56" test_fig2_manhattan_heuristics;
          quick "2-MP = 32" test_fig2_two_path_split;
        ] );
      ( "heuristic properties",
        List.concat
          [
            List.map
              (fun h -> QCheck_alcotest.to_alcotest (prop_heuristic_wellformed h))
              Routing.Heuristic.all;
            List.map
              (fun h -> QCheck_alcotest.to_alcotest (prop_loads_match_rates h))
              Routing.Heuristic.all;
            [
              quick "xy shape" test_xy_routes_are_xy;
              quick "two-bend shape" test_two_bend_paths_have_le_two_bends;
              quick "straight line" test_single_comm_straight_line;
              quick "equal comms split" test_two_equal_comms_split_apart;
            ];
          ] );
      ( "xyi",
        [
          quick "divert vertical" test_divert_vertical;
          quick "divert horizontal" test_divert_horizontal;
          quick "divert unavailable" test_divert_unavailable;
          QCheck_alcotest.to_alcotest prop_divert_valid_all_quadrants;
          quick "never worse than xy" test_xyi_never_worse_than_xy;
          quick "zero moves is xy" test_xyi_zero_moves_is_xy;
          quick "deterministic" test_xyi_deterministic;
          quick "improve never hurts" test_improve_never_hurts_any_heuristic;
          quick "improve rejects multipath" test_improve_rejects_multipath;
        ] );
      ( "pr",
        [
          quick "single paths" test_pr_single_paths;
          quick "deterministic" test_pr_deterministic;
          quick "spreads heavy pair" test_pr_spreads_two_heavy_comms;
        ] );
      ( "best",
        [
          quick "picks minimum" test_best_picks_minimum;
          quick "none when all fail" test_best_none_when_all_fail;
        ] );
      ( "multipath",
        [
          quick "PR-MP s=1 = PR" test_pr_multipath_s1_equals_route;
          QCheck_alcotest.to_alcotest prop_pr_multipath_wellformed;
          quick "PR-MP reaches fig2 optimum" test_pr_multipath_reaches_fig2_optimum;
          quick "split evenly" test_split_evenly;
          QCheck_alcotest.to_alcotest prop_split_preserves_loads;
          QCheck_alcotest.to_alcotest prop_diagonal_bound_below_any_feasible_dynamic;
        ] );
      ( "annealer",
        [
          quick "deterministic" test_annealer_deterministic;
          quick "empty" test_annealer_empty;
          quick "never worse than SG" test_annealer_never_worse_than_sg;
          quick "close to exact" test_annealer_close_to_exact;
        ] );
      ( "tables",
        [
          quick "roundtrip" test_tables_roundtrip;
          quick "lookup and ports" test_tables_lookup_and_ports;
          quick "reject multipath" test_tables_reject_multipath;
          quick "xy destination-deterministic" test_tables_xy_is_destination_deterministic;
          QCheck_alcotest.to_alcotest prop_tables_walk_all_heuristics;
        ] );
      ("registry", [ quick "registry" test_registry ]);
    ]
