(* Tests for the fault-injection subsystem: fault scenarios, detour walks,
   degraded-capacity power rules, repair, and fault-awareness of every
   heuristic. *)

let coord row col = Noc.Coord.make ~row ~col
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let km = Power.Model.kim_horowitz
let comm id src snk rate = Traffic.Communication.make ~id ~src ~snk ~rate
let link r1 c1 r2 c2 = Noc.Mesh.link ~src:(coord r1 c1) ~dst:(coord r2 c2)

(* ------------------------------------------------------------------ *)
(* Fault scenarios *)

let test_healthy_is_trivial () =
  let f = Noc.Fault.healthy (Noc.Mesh.square 4) in
  check_bool "trivial" true (Noc.Fault.is_trivial f);
  check_bool "connected" true (Noc.Fault.connected f);
  check_int "no dead edges" 0 (Noc.Fault.num_dead f);
  check_bool "everything usable" true (Noc.Fault.usable f (link 1 1 1 2))

let test_kill_link_both_directions () =
  let f =
    Noc.Fault.kill_link (Noc.Fault.healthy (Noc.Mesh.square 3)) (link 1 1 1 2)
  in
  check_bool "not trivial" false (Noc.Fault.is_trivial f);
  check_float "forward dead" 0. (Noc.Fault.factor_link f (link 1 1 1 2));
  check_float "reverse dead" 0. (Noc.Fault.factor_link f (link 1 2 1 1));
  check_bool "forward unusable" false (Noc.Fault.usable f (link 1 1 1 2));
  check_int "one dead edge" 1 (Noc.Fault.num_dead f);
  check_int "two dead directed links" 2
    (List.length (Noc.Fault.dead_links f));
  check_bool "still connected" true (Noc.Fault.connected f)

let test_degrade_link () =
  let healthy = Noc.Fault.healthy (Noc.Mesh.square 3) in
  let f = Noc.Fault.degrade_link healthy (link 2 1 2 2) 0.5 in
  check_float "factor set" 0.5 (Noc.Fault.factor_link f (link 2 1 2 2));
  check_float "reverse too" 0.5 (Noc.Fault.factor_link f (link 2 2 2 1));
  check_bool "degraded links remain usable" true
    (Noc.Fault.usable f (link 2 1 2 2));
  check_int "no dead edge" 0 (Noc.Fault.num_dead f);
  check_int "two degraded directed links" 2
    (List.length (Noc.Fault.degraded_links f));
  check_bool "rejects factor 1.5" true
    (match Noc.Fault.degrade_link healthy (link 1 1 1 2) 1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_degrade_link_rejects_nan () =
  (* Regression: NaN slipped through the old [f < 0. || f > 1.] guard
     (every comparison with NaN is false) and poisoned effective-load
     arithmetic downstream. *)
  let healthy = Noc.Fault.healthy (Noc.Mesh.square 3) in
  let rejects tag f =
    check_bool tag true
      (match Noc.Fault.degrade_link healthy (link 1 1 1 2) f with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "NaN rejected" Float.nan;
  rejects "negative rejected" (-0.25);
  rejects "infinity rejected" Float.infinity;
  rejects "negative zero times infinity rejected" (0. /. 0.);
  (* The closed boundaries stay legal: 0. is a kill, 1. a no-op. *)
  check_float "factor 0 accepted" 0.
    (Noc.Fault.factor_link
       (Noc.Fault.degrade_link healthy (link 1 1 1 2) 0.)
       (link 1 1 1 2));
  check_float "factor 1 accepted" 1.
    (Noc.Fault.factor_link
       (Noc.Fault.degrade_link healthy (link 1 1 1 2) 1.)
       (link 1 1 1 2))

let test_kill_router_disconnects () =
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let f = Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2) in
  check_int "both incident edges dead" 2 (Noc.Fault.num_dead f);
  check_bool "mesh disconnected" false (Noc.Fault.connected f)

let test_kill_region () =
  let mesh = Noc.Mesh.square 4 in
  let f =
    Noc.Fault.kill_region (Noc.Fault.healthy mesh) ~a:(coord 1 1)
      ~b:(coord 2 2)
  in
  (* Every link incident to the 2x2 corner block is dead. *)
  check_bool "inside link dead" false (Noc.Fault.usable f (link 1 1 1 2));
  check_bool "boundary link dead" false (Noc.Fault.usable f (link 2 2 2 3));
  check_bool "far link alive" true (Noc.Fault.usable f (link 4 3 4 4));
  check_bool "disconnected" false (Noc.Fault.connected f)

let test_random_dead_respects_kills_and_connectivity () =
  let mesh = Noc.Mesh.square 8 in
  let rng = Traffic.Rng.create 7 in
  let f =
    Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:12 mesh
  in
  check_int "twelve dead edges" 12 (Noc.Fault.num_dead f);
  check_bool "still connected" true (Noc.Fault.connected f)

let test_random_dead_deterministic_given_choose () =
  let make seed =
    let rng = Traffic.Rng.create seed in
    Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:6
      (Noc.Mesh.square 6)
  in
  check_bool "same seed, same scenario" true
    (Noc.Fault.dead_links (make 3) = Noc.Fault.dead_links (make 3));
  check_bool "different seeds differ" true
    (Noc.Fault.dead_links (make 3) <> Noc.Fault.dead_links (make 4))

let test_random_degraded () =
  let rng = Traffic.Rng.create 11 in
  let f =
    Noc.Fault.random_degraded ~choose:(Traffic.Rng.int rng) ~n:5
      (Noc.Mesh.square 6)
  in
  let degraded = Noc.Fault.degraded_links f in
  check_int "five edges, both directions" 10 (List.length degraded);
  List.iter
    (fun (_, phi) ->
      check_bool "factor from the default palette" true
        (List.mem phi [ 0.25; 0.5; 0.75 ]))
    degraded;
  check_int "nothing dead" 0 (Noc.Fault.num_dead f)

(* ------------------------------------------------------------------ *)
(* Walks *)

let test_walk_of_path_is_manhattan () =
  let p = Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 3 3) in
  let w = Noc.Walk.of_path p in
  check_bool "manhattan" true (Noc.Walk.is_manhattan w);
  check_int "no detour" 0 (Noc.Walk.detour_hops w);
  check_int "same length" (Noc.Path.length p) (Noc.Walk.length w)

let test_walk_detour_measured () =
  (* (1,1) -> (1,3) the long way round through row 2: 4 hops vs 2. *)
  let w =
    Noc.Walk.of_cores
      [| coord 1 1; coord 2 1; coord 2 2; coord 2 3; coord 1 3 |]
  in
  check_int "length" 4 (Noc.Walk.length w);
  check_int "two extra hops" 2 (Noc.Walk.detour_hops w);
  check_bool "not manhattan" false (Noc.Walk.is_manhattan w);
  let mesh = Noc.Mesh.square 3 in
  let mem l = Array.mem (Noc.Mesh.link_id mesh l) (Noc.Walk.ids mesh w) in
  check_bool "traverses its links" true (mem (link 2 2 2 3));
  check_bool "not other links" false (mem (link 1 1 1 2))

let test_walk_validation () =
  let rejects cores =
    match Noc.Walk.of_cores cores with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  rejects [||];
  rejects [| coord 1 1 |];
  rejects [| coord 1 1; coord 1 3 |];
  (* Revisits are allowed. *)
  ignore
    (Noc.Walk.of_cores [| coord 1 1; coord 1 2; coord 1 1; coord 1 2 |])

(* ------------------------------------------------------------------ *)
(* Degraded capacity in the power model and loads *)

let test_capped_model_tightens_feasibility () =
  (* Kim-Horowitz at factor 0.5: ceiling 1750. A 1200 Mb/s load fits no
     discrete level (1000 < load, 2500 > ceiling). *)
  check_bool "healthy 1200 feasible" true (Power.Model.is_feasible km 1200.);
  check_bool "degraded 1200 infeasible" false
    (Power.Model.is_feasible_capped km ~factor:0.5 1200.);
  check_bool "degraded 900 feasible" true
    (Power.Model.is_feasible_capped km ~factor:0.5 900.);
  check_bool "factor 1 delegates exactly" true
    (Power.Model.required_frequency_capped km ~factor:1. 1200.
    = Power.Model.required_frequency km 1200.);
  check_bool "dead link rejects any load" false
    (Power.Model.is_feasible_capped km ~factor:0. 1.);
  check_bool "dead link accepts zero" true
    (Power.Model.is_feasible_capped km ~factor:0. 0.)

let test_capped_penalty_exceeds_healthy () =
  (* Overloading a degraded link must cost more than the same load on a
     healthy one, so repair steers away from the damage. *)
  let healthy = Power.Model.penalized_cost km 1200. in
  let degraded = Power.Model.penalized_cost_capped km ~factor:0.5 1200. in
  check_bool "degradation penalized" true (degraded > healthy)

let test_load_effective_inflation () =
  let mesh = Noc.Mesh.square 3 in
  let fault =
    Noc.Fault.degrade_link (Noc.Fault.healthy mesh) (link 1 1 1 2) 0.5
  in
  let fault = Noc.Fault.kill_link fault (link 2 1 2 2) in
  let loads = Noc.Load.create ~fault mesh in
  let id l = Noc.Mesh.link_id mesh l in
  let effective l = Noc.Load.get_effective loads (id l) in
  Noc.Load.add loads (id (link 1 1 1 2)) 700.;
  check_float "raw load" 700. (Noc.Load.get loads (id (link 1 1 1 2)));
  check_float "effective doubled" 1400. (effective (link 1 1 1 2));
  Noc.Load.add loads (id (link 2 1 2 2)) 10.;
  check_bool "dead link load is infinite" true
    (effective (link 2 1 2 2) = infinity);
  check_bool "dead link unusable" false
    (Noc.Load.usable loads (id (link 2 1 2 2)));
  Noc.Load.add loads (id (link 1 2 1 3)) 500.;
  check_float "healthy link untouched" 500. (effective (link 1 2 1 3))

(* ------------------------------------------------------------------ *)
(* Repair *)

let test_repair_identity_on_trivial_fault () =
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 (coord 1 1) (coord 4 4) 800. ] in
  let s = Routing.Xy.route mesh comms in
  let s' = Routing.Repair.solution (Noc.Fault.healthy mesh) km s in
  check_bool "same solution" true (s == s')

let test_repair_swaps_to_surviving_manhattan () =
  let mesh = Noc.Mesh.square 3 in
  let c = comm 0 (coord 1 1) (coord 3 3) 500. in
  let s = Routing.Xy.route mesh [ c ] in
  (* XY goes (1,1)(1,2)(1,3)(2,3)(3,3); kill its first link. The bounding
     rectangle still has live Manhattan paths (e.g. YX). *)
  let fault =
    Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 1 1 2)
  in
  let s' = Routing.Repair.solution fault km s in
  check_int "no detour needed" 0 (Routing.Solution.detour_hops s');
  let r = Routing.Evaluate.solution ~fault km s' in
  check_bool "feasible after repair" true r.Routing.Evaluate.feasible;
  List.iter
    (fun (route : Routing.Solution.route) ->
      List.iter
        (fun (p, _) ->
          check_bool "path avoids dead links" true
            (Noc.Fault.path_usable fault p))
        route.paths)
    (Routing.Solution.routes s')

let test_repair_detours_when_manhattan_cut () =
  (* Row communication (1,1)->(1,3): its only Manhattan path dies with the
     (1,2)-(1,3) edge, so the repair must take a 2-hop detour. *)
  let mesh = Noc.Mesh.square 3 in
  let c = comm 0 (coord 1 1) (coord 1 3) 400. in
  let s = Routing.Xy.route mesh [ c ] in
  let fault =
    Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 2 1 3)
  in
  let s' = Routing.Repair.solution fault km s in
  check_int "two detour hops" 2 (Routing.Solution.detour_hops s');
  let r = Routing.Evaluate.solution ~fault km s' in
  check_bool "feasible via the detour" true r.Routing.Evaluate.feasible;
  check_int "report surfaces the detour" 2 r.Routing.Evaluate.detour_hops

let test_repair_raises_when_disconnected () =
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let c = comm 0 (coord 1 1) (coord 1 3) 100. in
  let s = Routing.Xy.route mesh [ c ] in
  let fault = Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2) in
  check_bool "No_route raised" true
    (match Routing.Repair.solution fault km s with
    | _ -> false
    | exception Routing.Repair.No_route c' -> c'.Traffic.Communication.id = 0)

let test_repair_detour_helper () =
  let mesh = Noc.Mesh.square 3 in
  let fault =
    Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 2 1 3)
  in
  let detour fault = Routing.Repair.detour (Noc.Load.create ~fault mesh) in
  (match detour fault ~src:(coord 1 1) ~snk:(coord 1 3) with
  | Some w ->
      check_int "shortest surviving walk" 4 (Noc.Walk.length w);
      check_bool "walk avoids dead links" true (Noc.Fault.walk_usable fault w)
  | None -> Alcotest.fail "a detour exists");
  let cut = Noc.Fault.kill_router (Noc.Fault.healthy mesh) (coord 1 2) in
  let cut = Noc.Fault.kill_router cut (coord 2 1) in
  let cut = Noc.Fault.kill_router cut (coord 2 2) in
  check_bool "None when disconnected" true
    (detour cut ~src:(coord 1 1) ~snk:(coord 3 3) = None)

(* ------------------------------------------------------------------ *)
(* Fault-aware heuristics *)

let solution_respects fault s =
  List.for_all
    (fun (route : Routing.Solution.route) ->
      List.for_all (fun (p, _) -> Noc.Fault.path_usable fault p) route.paths
      && List.for_all
           (fun (w, _) -> Noc.Fault.walk_usable fault w)
           route.detours)
    (Routing.Solution.routes s)

(* ------------------------------------------------------------------ *)
(* Repair as a property *)

let repair_instance seed kills =
  let mesh = Noc.Mesh.square 6 in
  let rng = Traffic.Rng.create seed in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:8
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:1200.)
  in
  let fault =
    Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills mesh
  in
  (mesh, fault, Routing.Xy.route mesh comms)

let prop_repair_idempotent =
  QCheck.Test.make
    ~name:"repair is idempotent: repairing a repaired solution changes nothing"
    ~count:30
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 6))
    (fun (seed, kills) ->
      let _, fault, s = repair_instance seed kills in
      let r1 = Routing.Repair.solution fault km s in
      let r2 = Routing.Repair.solution fault km r1 in
      Routing.Solution.routes r2 = Routing.Solution.routes r1
      && Routing.Solution.detour_hops r2 = Routing.Solution.detour_hops r1)

let prop_repair_avoids_dead_links =
  (* Under arbitrary router / region outages the repair either returns a
     solution free of dead links, or raises the structured No_route for a
     communication whose endpoints are genuinely disconnected. *)
  QCheck.Test.make ~name:"repaired routes never traverse dead links"
    ~count:30
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 0 35) (int_range 0 35))
    (fun (seed, a, b) ->
      let mesh = Noc.Mesh.square 6 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:6
          ~weight:(Traffic.Workload.weight ~lo:200. ~hi:900.)
      in
      let core i = coord ((i / 6) + 1) ((i mod 6) + 1) in
      let fault =
        Noc.Fault.kill_region
          (Noc.Fault.kill_router (Noc.Fault.healthy mesh) (core a))
          ~a:(core b) ~b:(core (min 35 (b + 7)))
      in
      let s = Routing.Xy.route mesh comms in
      match Routing.Repair.solution fault km s with
      | exception Routing.Repair.No_route c ->
          (* The exception must only fire on true disconnection. *)
          Routing.Repair.detour
            (Noc.Load.create ~fault mesh)
            ~src:c.Traffic.Communication.src ~snk:c.Traffic.Communication.snk
          = None
      | repaired -> solution_respects fault repaired)

(* Components of the surviving graph by union-find over its alive edges,
   read edge by edge through [Fault.usable]: independent of the BFS that
   [Fault.connected] and [Repair.detour] share. *)
let components fault =
  let mesh = Noc.Fault.mesh fault in
  let rows = Noc.Mesh.rows mesh and cols = Noc.Mesh.cols mesh in
  let index (c : Noc.Coord.t) = ((c.row - 1) * cols) + c.col - 1 in
  let uf = Array.init (rows * cols) Fun.id in
  let rec find i = if uf.(i) = i then i else find uf.(i) in
  let union a b =
    if Noc.Fault.usable fault (Noc.Mesh.link ~src:a ~dst:b) then
      uf.(find (index a)) <- find (index b)
  in
  for r = 1 to rows do
    for c = 1 to cols do
      if c < cols then union (coord r c) (coord r (c + 1));
      if r < rows then union (coord r c) (coord (r + 1) c)
    done
  done;
  fun c -> find (index c)

let prop_connectivity_matches_union_find =
  QCheck.Test.make
    ~name:"connected and detour agree with a union-find of the alive edges"
    ~count:150
    QCheck.(
      quad (int_range 1 6) (int_range 1 6) (int_range 0 1_000_000)
        (int_range 0 10))
    (fun (rows, cols, seed, kills) ->
      let mesh = Noc.Mesh.create ~rows ~cols in
      let rng = Traffic.Rng.create seed in
      let pick n = Traffic.Rng.int rng n in
      let core () = coord (1 + pick rows) (1 + pick cols) in
      let near (c : Noc.Coord.t) =
        coord (min rows (c.row + pick 3)) (min cols (c.col + pick 3))
      in
      let kill f =
        match pick 6 with
        | 4 -> Noc.Fault.kill_router f (core ())
        | 5 ->
            let a = core () in
            Noc.Fault.kill_region f ~a ~b:(near a)
        | _ -> (
            let a = core () in
            match
              Noc.Mesh.move mesh a
                [| Noc.Mesh.East; West; South; North |].(pick 4)
            with
            | Some b -> Noc.Fault.kill_link f (Noc.Mesh.link ~src:a ~dst:b)
            | None -> f)
      in
      let fault = ref (Noc.Fault.healthy mesh) in
      for _ = 1 to kills do
        fault := kill !fault
      done;
      let fault = !fault in
      let comp = components fault in
      let cores = Noc.Mesh.all_cores mesh in
      let loads = Noc.Load.create ~fault mesh in
      Noc.Fault.connected fault
      = Array.for_all (fun c -> comp c = comp cores.(0)) cores
      && Array.for_all
           (fun src ->
             Array.for_all
               (fun snk ->
                 Noc.Coord.equal src snk
                 ||
                 match Routing.Repair.detour loads ~src ~snk with
                 | Some w ->
                     comp src = comp snk
                     && Noc.Coord.equal (Noc.Walk.src w) src
                     && Noc.Coord.equal (Noc.Walk.snk w) snk
                     && Noc.Fault.walk_usable fault w
                 | None -> comp src <> comp snk)
               cores)
           cores)

let test_all_heuristics_avoid_dead_links () =
  let mesh = Noc.Mesh.square 6 in
  let rng = Traffic.Rng.create 21 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:10
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:900.)
  in
  let fault =
    Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng) ~kills:6 mesh
  in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let s = h.run ~fault km mesh comms in
      check_bool (h.name ^ " avoids the damage") true
        (solution_respects fault s))
    Routing.Heuristic.all

let test_all_heuristics_survive_cut_rectangle () =
  (* The fault kills the only Manhattan path of comm 0's degenerate
     rectangle (row 1 of a 3x3), so every heuristic must fall through to
     the repair detour instead of raising (PR's path extraction used to
     assert here: with every rectangle path dead, an infinite dead-link
     price left no finite DP chain). *)
  let mesh = Noc.Mesh.square 3 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 3) 700.; comm 1 (coord 3 1) (coord 1 2) 500. ]
  in
  let fault = Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 2 1 3) in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let s = h.run ~fault km mesh comms in
      check_bool (h.name ^ " detours the cut rectangle") true
        (solution_respects fault s && Routing.Solution.detour_hops s >= 2))
    Routing.Heuristic.all

let test_heuristics_route_around_degraded_bottleneck () =
  (* 2x2, one communication of 1000 Mb/s corner to corner. With the north
     edge degraded to 0.25 (ceiling 875 < 1000) the load-aware heuristics
     must pick the other L. *)
  let mesh = Noc.Mesh.square 2 in
  let c = comm 0 (coord 1 1) (coord 2 2) 1000. in
  let fault =
    Noc.Fault.degrade_link (Noc.Fault.healthy mesh) (link 1 1 1 2) 0.25
  in
  List.iter
    (fun name ->
      let h = Option.get (Routing.Heuristic.find name) in
      let s = h.run ~fault km mesh [ c ] in
      let r = Routing.Evaluate.solution ~fault km s in
      check_bool (name ^ " feasible under degradation") true
        r.Routing.Evaluate.feasible)
    [ "SG"; "IG"; "TB"; "XYI"; "PR" ]

let test_xy_post_repair_detours () =
  (* Plain XY is fault-oblivious; the registry's guard must still hand
     back a usable (possibly detouring) solution. *)
  let mesh = Noc.Mesh.square 3 in
  let c = comm 0 (coord 1 1) (coord 1 3) 300. in
  let fault =
    Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 1 1 2)
  in
  let fault = Noc.Fault.kill_link fault (link 1 2 1 3) in
  let xy = Option.get (Routing.Heuristic.find "XY") in
  let s = xy.run ~fault km mesh [ c ] in
  check_bool "usable" true (solution_respects fault s);
  check_bool "detoured" true (Routing.Solution.detour_hops s > 0)

let test_of_plain_wraps_repair () =
  let mesh = Noc.Mesh.square 3 in
  let c = comm 0 (coord 1 1) (coord 1 3) 300. in
  let fault =
    Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 2 1 3)
  in
  let h =
    Routing.Heuristic.of_plain ~name:"XY2" ~description:"plain xy"
      (fun _model mesh comms -> Routing.Xy.route mesh comms)
  in
  let s = h.run ~fault km mesh [ c ] in
  check_bool "wrapped heuristic detours" true
    (solution_respects fault s && Routing.Solution.detour_hops s = 2);
  (* Without a fault the wrapper is the plain function. *)
  let s' = h.run km mesh [ c ] in
  check_int "no fault, no detour" 0 (Routing.Solution.detour_hops s')

let test_exact_fault_aware () =
  (* A 1x3 corridor: killing the first link makes the exact solver prove
     infeasibility outright. *)
  let mesh = Noc.Mesh.create ~rows:1 ~cols:3 in
  let comms = [ comm 0 (coord 1 1) (coord 1 3) 2000. ] in
  (match Optim.Exact.route km mesh comms with
  | Optim.Exact.Optimal _ -> ()
  | _ -> Alcotest.fail "healthy corridor is solvable");
  let fault =
    Noc.Fault.kill_link (Noc.Fault.healthy mesh) (link 1 1 1 2)
  in
  check_bool "dead corridor proved infeasible" true
    (Optim.Exact.route ~fault km mesh comms = Optim.Exact.Infeasible);
  (* Degraded to 0.5 the ceiling is 1750: 2000 Mb/s cannot fit, 800 can
     (the 1000 MHz level sits under the ceiling). *)
  let degraded =
    Noc.Fault.degrade_link (Noc.Fault.healthy mesh) (link 1 1 1 2) 0.5
  in
  check_bool "over-ceiling load infeasible" true
    (Optim.Exact.route ~fault:degraded km mesh comms
    = Optim.Exact.Infeasible);
  match
    Optim.Exact.route ~fault:degraded km mesh
      [ comm 0 (coord 1 1) (coord 1 3) 800. ]
  with
  | Optim.Exact.Optimal _ -> ()
  | _ -> Alcotest.fail "under-ceiling load routes"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fault"
    [
      ( "scenarios",
        [
          quick "healthy is trivial" test_healthy_is_trivial;
          quick "kill link" test_kill_link_both_directions;
          quick "degrade link" test_degrade_link;
          quick "degrade link rejects NaN" test_degrade_link_rejects_nan;
          quick "kill router" test_kill_router_disconnects;
          quick "kill region" test_kill_region;
          quick "random dead" test_random_dead_respects_kills_and_connectivity;
          quick "random dead deterministic" test_random_dead_deterministic_given_choose;
          quick "random degraded" test_random_degraded;
        ] );
      ( "walks",
        [
          quick "of_path" test_walk_of_path_is_manhattan;
          quick "detour measured" test_walk_detour_measured;
          quick "validation" test_walk_validation;
        ] );
      ( "capacity",
        [
          quick "capped model" test_capped_model_tightens_feasibility;
          quick "capped penalty" test_capped_penalty_exceeds_healthy;
          quick "effective loads" test_load_effective_inflation;
        ] );
      ( "repair",
        [
          quick "identity on trivial" test_repair_identity_on_trivial_fault;
          quick "surviving manhattan" test_repair_swaps_to_surviving_manhattan;
          quick "detour" test_repair_detours_when_manhattan_cut;
          quick "no route" test_repair_raises_when_disconnected;
          quick "detour helper" test_repair_detour_helper;
          QCheck_alcotest.to_alcotest prop_repair_idempotent;
          QCheck_alcotest.to_alcotest prop_repair_avoids_dead_links;
          QCheck_alcotest.to_alcotest prop_connectivity_matches_union_find;
        ] );
      ( "heuristics",
        [
          quick "avoid dead links" test_all_heuristics_avoid_dead_links;
          quick "survive cut rectangle" test_all_heuristics_survive_cut_rectangle;
          quick "degraded bottleneck" test_heuristics_route_around_degraded_bottleneck;
          quick "xy post-repair" test_xy_post_repair_detours;
          quick "of_plain" test_of_plain_wraps_repair;
          quick "exact solver" test_exact_fault_aware;
        ] );
    ]
