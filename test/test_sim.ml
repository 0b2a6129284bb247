(* Tests for the wormhole simulator: configuration validation, delivery of
   feasible routings, starvation under overload, escape-channel behaviour
   and deadlock detection on an adversarial cyclic route set. *)

let coord row col = Noc.Coord.make ~row ~col
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let km = Power.Model.kim_horowitz

let comm id src snk rate = Traffic.Communication.make ~id ~src ~snk ~rate

let test_config_validation () =
  Alcotest.check_raises "escape needs 2 vcs"
    (Invalid_argument "Sim.Config: escape needs at least 2 VCs") (fun () ->
      Sim.Config.validate { Sim.Config.default with num_vcs = 1 });
  Alcotest.check_raises "packet size"
    (Invalid_argument "Sim.Config: packet_flits < 1") (fun () ->
      Sim.Config.validate { Sim.Config.default with packet_flits = 0 });
  (* Capacities no array can hold fail here, before [create] allocates. *)
  let huge =
    "Sim.Config: num_vcs * buffer_flits exceeds Sys.max_array_length"
  in
  Alcotest.check_raises "huge buffers" (Invalid_argument huge) (fun () ->
      Sim.Config.validate { Sim.Config.default with buffer_flits = max_int });
  Alcotest.check_raises "huge VC count" (Invalid_argument huge) (fun () ->
      Sim.Config.validate { Sim.Config.default with num_vcs = max_int });
  Alcotest.check_raises "huge injection queue"
    (Invalid_argument
       "Sim.Config: max_pending_packets exceeds Sys.max_array_length")
    (fun () ->
      Sim.Config.validate
        { Sim.Config.default with max_pending_packets = max_int });
  (* Per link the queues fit, but not over every link of the mesh. *)
  let config =
    { Sim.Config.default with num_vcs = 2; buffer_flits = 1 lsl 52 }
  in
  Sim.Config.validate config;
  Alcotest.check_raises "queues over every link"
    (Invalid_argument
       "Sim.Config: links * num_vcs * buffer_flits exceeds \
        Sys.max_array_length")
    (fun () ->
      let mesh = Noc.Mesh.square 2 in
      ignore
        (Sim.Network.create ~config km
           (Routing.Xy.route mesh [ comm 0 (coord 1 1) (coord 2 2) 100. ])));
  Sim.Config.validate Sim.Config.default

let test_single_comm_full_delivery () =
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 (coord 1 1) (coord 4 4) 1000. ] in
  let sol = Routing.Xy.route mesh comms in
  let v = Sim.Validate.run ~cycles:10_000 km sol in
  check_bool "delivered" true v.all_delivered;
  check_bool "no deadlock" false v.report.Sim.Network.deadlocked;
  match v.report.Sim.Network.comms with
  | [ s ] ->
      check_bool "latency at least path length" true
        (s.mean_latency >= 6.);
      check_int "no escapes" 0 s.escaped_packets
  | _ -> Alcotest.fail "one comm"

let test_feasible_routing_delivers () =
  let mesh = Noc.Mesh.square 8 in
  let rng = Traffic.Rng.create 5 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:15
      ~weight:(Traffic.Workload.weight ~lo:300. ~hi:1200.)
  in
  let sol = Routing.Path_remover.route mesh comms in
  let report = Routing.Evaluate.solution km sol in
  check_bool "routing is feasible" true report.Routing.Evaluate.feasible;
  let v = Sim.Validate.run ~cycles:20_000 km sol in
  check_bool "full delivery" true v.all_delivered

let test_overload_starves () =
  let mesh = Noc.Mesh.square 8 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 5) 3000.; comm 1 (coord 1 1) (coord 1 5) 3000. ]
  in
  (* Both on the same row: 6000 Mb/s offered on 3500 Mb/s links. *)
  let sol = Routing.Xy.route mesh comms in
  let v = Sim.Validate.run ~cycles:15_000 km sol in
  check_bool "not fully delivered" false v.all_delivered;
  check_bool "substantially starved" true (v.worst_fraction < 0.8)

let test_multipath_delivery () =
  (* A split communication uses both L-paths and still delivers. *)
  let mesh = Noc.Mesh.square 4 in
  let c = comm 0 (coord 1 1) (coord 2 2) 3000. in
  let xy = Noc.Path.xy ~src:c.src ~snk:c.snk
  and yx = Noc.Path.yx ~src:c.src ~snk:c.snk in
  let sol =
    Routing.Solution.make mesh
      [ Routing.Solution.route_multi c [ (xy, 1500.); (yx, 1500.) ] ]
  in
  let v = Sim.Validate.run ~cycles:20_000 km sol in
  check_bool "delivered over two paths" true v.all_delivered

let test_cyclic_routes_deadlock_without_escape () =
  let config =
    {
      Sim.Config.default with
      escape_vc = false;
      num_vcs = 1;
      packet_flits = 16;
      buffer_flits = 4;
      deadlock_window = 2_000;
    }
  in
  let v = Sim.Validate.run ~config ~cycles:30_000 km (Sim_check.cyclic_instance ()) in
  check_bool "deadlock detected" true v.report.Sim.Network.deadlocked

let test_cyclic_routes_survive_with_escape () =
  let config =
    {
      Sim.Config.default with
      packet_flits = 16;
      buffer_flits = 4;
      escape_patience = 32;
      deadlock_window = 2_000;
    }
  in
  let v = Sim.Validate.run ~config ~cycles:30_000 km (Sim_check.cyclic_instance ()) in
  check_bool "no deadlock" false v.report.Sim.Network.deadlocked;
  (* At the default 4 VCs this instance does not deadlock even without
     the escape VC, and no packet escapes: the 2-VC case below is the
     one that exercises the escape channel. *)
  check_bool "packets escaped or delivered cleanly" true
    (Sim_check.escaped v.report >= 0 && v.worst_fraction > 0.3)

(* One VC deadlocks on the cycle (above); with the escape VC as the
   second, the cycle must drain through escapes. *)
let test_cyclic_routes_escape_at_two_vcs () =
  let v = Sim_check.cyclic_two_vcs () in
  check_bool "no deadlock" false v.report.Sim.Network.deadlocked;
  check_bool "packets escaped" true (Sim_check.escaped v.report > 0);
  check_bool "delivery floor" true (v.worst_fraction > 0.25)

(* A detour walk may revisit a core, and so cross a link twice: the
   packet must follow the walk hop by hop, not loop back to the link's
   first occurrence. *)
let test_walk_revisiting_link () =
  let mesh = Noc.Mesh.create ~rows:2 ~cols:3 in
  let c = comm 0 (coord 1 1) (coord 1 3) 300. in
  let walk =
    Noc.Walk.of_cores
      [| coord 1 1; coord 1 2; coord 1 1; coord 1 2; coord 1 3 |]
  in
  let sol =
    Routing.Solution.make mesh [ Routing.Solution.route_detour c walk ]
  in
  let v = Sim.Validate.run ~cycles:4_000 km sol in
  let r = v.report in
  check_bool "delivered" true v.all_delivered;
  check_bool "no deadlock" false r.Sim.Network.deadlocked;
  check_int "flits conserved" r.injected_flits
    (r.ejected_flits + r.in_flight_flits)

let test_latency_percentiles () =
  let mesh = Noc.Mesh.square 5 in
  let comms = [ comm 0 (coord 1 1) (coord 5 5) 1500. ] in
  let sol = Routing.Xy.route mesh comms in
  let net = Sim.Network.create km sol in
  let r = Sim.Network.run net ~cycles:10_000 in
  match r.Sim.Network.comms with
  | [ s ] ->
      check_bool "p50 <= p95" true (s.latency_p50 <= s.latency_p95);
      check_bool "p95 <= p99" true (s.latency_p95 <= s.latency_p99);
      (* A packet needs at least path length + packet size - 1 cycles. *)
      check_bool "p50 above physical minimum" true
        (s.latency_p50 >= float_of_int (8 + 8 - 1));
      check_bool "mean between p50-ish bounds" true
        (s.mean_latency >= s.latency_p50 /. 2.
        && s.mean_latency <= s.latency_p99 +. 1.)
  | _ -> Alcotest.fail "one comm"

let test_idle_links_off_still_delivers_xy () =
  (* With idle links truly off and no escape, a pure XY solution only uses
     clocked links, so delivery must still work. *)
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 (coord 1 1) (coord 4 4) 1000. ] in
  let sol = Routing.Xy.route mesh comms in
  let config =
    {
      Sim.Config.default with
      idle_links_min_level = false;
      escape_vc = false;
      num_vcs = 2;
    }
  in
  let v = Sim.Validate.run ~config ~cycles:10_000 km sol in
  check_bool "delivered" true v.all_delivered

let test_router_latency_slows_packets () =
  let mesh = Noc.Mesh.square 5 in
  let comms = [ comm 0 (coord 1 1) (coord 5 5) 800. ] in
  let latency_with router_latency =
    let sol = Routing.Xy.route mesh comms in
    let config = { Sim.Config.default with router_latency } in
    let net = Sim.Network.create ~config km sol in
    let r = Sim.Network.run net ~cycles:8_000 in
    match r.Sim.Network.comms with
    | [ s ] -> s.mean_latency
    | _ -> Alcotest.fail "one comm"
  in
  let l1 = latency_with 1 and l3 = latency_with 3 in
  check_bool "3-cycle routers are slower" true (l3 > l1 +. 4.)

let test_zero_warmup () =
  let mesh = Noc.Mesh.square 3 in
  let sol = Routing.Xy.route mesh [ comm 0 (coord 1 1) (coord 3 3) 500. ] in
  let net = Sim.Network.create km sol in
  let r = Sim.Network.run ~warmup:0 net ~cycles:5_000 in
  check_int "measured everything" 5_000 r.Sim.Network.cycles

let test_observer_events_match_stats () =
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 (coord 1 1) (coord 4 4) 1200. ] in
  let sol = Routing.Xy.route mesh comms in
  let net = Sim.Network.create km sol in
  let injected = ref 0 and delivered = ref 0 and escaped = ref 0 in
  Sim.Network.set_observer net (function
    | Sim.Network.Injected _ -> incr injected
    | Sim.Network.Delivered { latency; _ } ->
        Alcotest.(check bool) "positive latency" true (latency > 0);
        incr delivered
    | Sim.Network.Escaped _ -> incr escaped
    | Sim.Network.Deadlock _ -> Alcotest.fail "no deadlock expected"
    | Sim.Network.Link_killed _ -> Alcotest.fail "no kill scheduled");
  let r = Sim.Network.run ~warmup:0 net ~cycles:10_000 in
  (match r.Sim.Network.comms with
  | [ s ] ->
      check_int "observer saw every injection" s.packets_injected !injected;
      check_int "observer saw every delivery" s.packets_delivered !delivered;
      check_int "no escapes" 0 !escaped
  | _ -> Alcotest.fail "one comm");
  check_bool "deliveries happened" true (!delivered > 0)

let test_link_utilization_exposed () =
  let mesh = Noc.Mesh.square 3 in
  let comms = [ comm 0 (coord 1 1) (coord 1 3) 1750. ] in
  let sol = Routing.Xy.route mesh comms in
  let net = Sim.Network.create km sol in
  let r = Sim.Network.run net ~cycles:10_000 in
  check_int "one entry per link" (Noc.Mesh.num_links mesh)
    (Array.length r.Sim.Network.link_utilization);
  (* The first hop (1,1)->(1,2) must carry half-capacity traffic. *)
  let id =
    Noc.Mesh.link_id mesh
      (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2))
  in
  let u = List.assoc id (Array.to_list r.Sim.Network.link_utilization) in
  check_bool "utilization near 0.5" true (u > 0.45 && u < 0.55);
  check_bool "max is consistent" true
    (r.Sim.Network.max_link_utilization >= u -. 1e-9)

let test_run_once_only () =
  let mesh = Noc.Mesh.square 3 in
  let sol = Routing.Xy.route mesh [ comm 0 (coord 1 1) (coord 3 3) 100. ] in
  let net = Sim.Network.create km sol in
  ignore (Sim.Network.run net ~cycles:100);
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Sim.Network.run: already run") (fun () ->
      ignore (Sim.Network.run net ~cycles:100))

let test_all_heuristics_validate_on_easy_instance () =
  (* E11: every heuristic's feasible output must pass end-to-end. *)
  let mesh = Noc.Mesh.square 8 in
  let rng = Traffic.Rng.create 12 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:8
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:900.)
  in
  List.iter
    (fun (h : Routing.Heuristic.t) ->
      let sol = h.run km mesh comms in
      let report = Routing.Evaluate.solution km sol in
      if report.Routing.Evaluate.feasible then begin
        let v = Sim.Validate.run ~cycles:15_000 km sol in
        check_bool (h.name ^ " delivers") true v.all_delivered
      end)
    Routing.Heuristic.all

(* ------------------------------------------------------------------ *)
(* Mid-simulation link kills *)

(* A YX route (1,1)->(2,1)->(3,1)->(3,2)->(3,3) whose second hop dies
   mid-run; the XY escape from the stall point avoids the dead link. *)
let kill_instance () =
  let mesh = Noc.Mesh.square 4 in
  let c = comm 0 (coord 1 1) (coord 3 3) 800. in
  let path = Noc.Path.yx ~src:c.src ~snk:c.snk in
  let sol =
    Routing.Solution.make mesh [ Routing.Solution.route_single c path ]
  in
  (sol, Noc.Mesh.link ~src:(coord 2 1) ~dst:(coord 3 1))

let test_link_kill_escape_delivers () =
  let sol, dead = kill_instance () in
  let net = Sim.Network.create km sol in
  Sim.Network.schedule_link_kill net ~cycle:200 dead;
  let kills = ref 0 and escaped = ref 0 and delivered_after = ref 0 in
  Sim.Network.set_observer net (function
    | Sim.Network.Link_killed { cycle; _ } ->
        incr kills;
        check_bool "kill applied at its cycle" true (cycle >= 200)
    | Sim.Network.Escaped _ -> incr escaped
    | Sim.Network.Delivered { cycle; _ } ->
        if cycle > 400 then incr delivered_after
    | _ -> ());
  let r = Sim.Network.run ~warmup:0 net ~cycles:10_000 in
  check_int "one kill event" 1 !kills;
  check_bool "no deadlock" false r.Sim.Network.deadlocked;
  check_bool "packets escaped around the dead link" true (!escaped > 0);
  check_bool "deliveries continue after the kill" true (!delivered_after > 0)

let test_link_kill_without_escape_deadlocks () =
  let sol, dead = kill_instance () in
  let config =
    {
      Sim.Config.default with
      escape_vc = false;
      num_vcs = 2;
      deadlock_window = 2_000;
    }
  in
  let net = Sim.Network.create ~config km sol in
  Sim.Network.schedule_link_kill net ~cycle:200 dead;
  let r = Sim.Network.run ~warmup:0 net ~cycles:15_000 in
  check_bool "deadlock detected" true r.Sim.Network.deadlocked

let test_schedule_kill_validation () =
  let sol, dead = kill_instance () in
  let net = Sim.Network.create km sol in
  let rejects cycle link =
    match Sim.Network.schedule_link_kill net ~cycle link with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  rejects (-1) dead;
  rejects 10 (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 3 3));
  (* A kill scheduled once the network has run would never apply. *)
  ignore (Sim.Network.run net ~cycles:10);
  rejects 10 dead

(* ------------------------------------------------------------------ *)
(* Validate verdicts *)

let test_validate_zero_comms () =
  let mesh = Noc.Mesh.square 3 in
  let sol = Routing.Solution.make mesh [] in
  let v = Sim.Validate.run ~cycles:2_000 km sol in
  check_bool "worst fraction is 1" true (v.worst_fraction = 1.0);
  check_bool "all delivered" true v.all_delivered;
  check_bool "no deadlock" false v.report.Sim.Network.deadlocked

let test_validate_threshold_boundary () =
  (* The same deterministic measurement, bracketed by two thresholds. *)
  let mesh = Noc.Mesh.square 4 in
  let comms = [ comm 0 (coord 1 1) (coord 4 4) 1000. ] in
  let sol = Routing.Xy.route mesh comms in
  let lax = Sim.Validate.run ~cycles:8_000 ~threshold:0.5 km sol in
  check_bool "lax threshold passes" true lax.all_delivered;
  (* Packet-granular measurement can slightly overshoot the request. *)
  check_bool "fraction in (0.5, ~1]" true
    (lax.worst_fraction > 0.5 && lax.worst_fraction <= 1.1);
  let strict =
    Sim.Validate.run ~cycles:8_000
      ~threshold:(lax.worst_fraction +. 0.01)
      km sol
  in
  check_bool "same measurement" true
    (Float.abs (strict.worst_fraction -. lax.worst_fraction) < 1e-9);
  check_bool "strict threshold fails" false strict.all_delivered

let test_validate_deadlock_never_passes () =
  (* A deadlocked run must not validate even with a zero threshold. *)
  let config =
    {
      Sim.Config.default with
      escape_vc = false;
      num_vcs = 1;
      packet_flits = 16;
      buffer_flits = 4;
      deadlock_window = 2_000;
    }
  in
  let v =
    Sim.Validate.run ~config ~cycles:30_000 ~threshold:0. km
      (Sim_check.cyclic_instance ())
  in
  check_bool "deadlocked" true v.report.Sim.Network.deadlocked;
  check_bool "not validated" false v.all_delivered

(* ------------------------------------------------------------------ *)
(* Run-budget validation: a non-positive budget used to silently produce
   a bogus report, and tiny budgets need their whole window measured
   (the default warmup is 0, not cycles/5 rounded down, when cycles < 5).
   Both behaviours are pinned here. *)

let tiny_net () =
  let mesh = Noc.Mesh.square 3 in
  let sol = Routing.Xy.route mesh [ comm 0 (coord 1 1) (coord 3 3) 500. ] in
  Sim.Network.create km sol

let test_run_budget_validation () =
  Alcotest.check_raises "zero cycles"
    (Invalid_argument "Sim.Network.run: cycles must be positive") (fun () ->
      ignore (Sim.Network.run (tiny_net ()) ~cycles:0));
  Alcotest.check_raises "negative cycles"
    (Invalid_argument "Sim.Network.run: cycles must be positive") (fun () ->
      ignore (Sim.Network.run (tiny_net ()) ~cycles:(-5)));
  Alcotest.check_raises "negative warmup"
    (Invalid_argument "Sim.Network.run: negative warmup") (fun () ->
      ignore (Sim.Network.run ~warmup:(-1) (tiny_net ()) ~cycles:100));
  Alcotest.check_raises "zero tolerance"
    (Invalid_argument "Sim.Network.run: tolerance must be positive")
    (fun () ->
      ignore (Sim.Network.run ~tolerance:0. (tiny_net ()) ~cycles:100));
  Alcotest.check_raises "nan tolerance"
    (Invalid_argument "Sim.Network.run: tolerance must be positive")
    (fun () ->
      ignore (Sim.Network.run ~tolerance:Float.nan (tiny_net ()) ~cycles:100));
  (* The default warmup is cycles/5, so this total does not fit an int: it
     used to wrap negative and simulate nothing. *)
  Alcotest.check_raises "warmup + cycles overflows"
    (Invalid_argument "Sim.Network.run: warmup + cycles overflows")
    (fun () -> ignore (Sim.Network.run (tiny_net ()) ~cycles:max_int))

let test_tiny_budget_measures_every_cycle () =
  let r = Sim.Network.run (tiny_net ()) ~cycles:3 in
  check_int "three measured cycles" 3 r.Sim.Network.cycles;
  check_bool "no early exit without tolerance" false r.Sim.Network.early_exit;
  let r10 = Sim.Network.run (tiny_net ()) ~cycles:10 in
  check_int "full window at 10 cycles" 10 r10.Sim.Network.cycles

(* ------------------------------------------------------------------ *)
(* Differential oracle: randomized cross-checks of the simulator's
   conservation law, rate convergence and bit-level determinism. *)

let sim_instance_gen =
  QCheck.Gen.(triple (int_range 0 100_000) (int_range 3 6) (int_range 1 8))

let sim_instance (seed, p, n) =
  let mesh = Noc.Mesh.square p in
  let rng = Traffic.Rng.create seed in
  let comms =
    Traffic.Workload.uniform rng mesh ~n
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:900.)
  in
  (mesh, comms)

(* Marshalling keeps NaNs and float bits intact, so equal digests mean
   bit-identical reports. *)
let report_digest (r : Sim.Network.report) =
  Digest.string (Marshal.to_string r [])

let prop_flit_conservation =
  QCheck.Test.make ~name:"injected = ejected + in-flight at the cutoff"
    ~count:25
    (QCheck.make sim_instance_gen)
    (fun ((seed, _, _) as params) ->
      let mesh, comms = sim_instance params in
      let sol = Routing.Xy.route mesh comms in
      let net = Sim.Network.create km sol in
      (* Half the cases exercise the early-exit path: conservation must
         hold at whatever cutoff the detector picks. *)
      let tolerance = if seed mod 2 = 0 then Some 0.15 else None in
      let r = Sim.Network.run ?tolerance net ~cycles:2_000 in
      r.Sim.Network.injected_flits
      = r.Sim.Network.ejected_flits + r.Sim.Network.in_flight_flits)

let prop_delivered_rate_converges =
  QCheck.Test.make
    ~name:"feasible routing converges to the requested rates" ~count:12
    (QCheck.make sim_instance_gen)
    (fun params ->
      let mesh, comms = sim_instance params in
      let sol = Routing.Xy.route mesh comms in
      QCheck.assume
        (Routing.Evaluate.solution km sol).Routing.Evaluate.feasible;
      let net = Sim.Network.create km sol in
      let r = Sim.Network.run net ~cycles:6_000 in
      List.for_all
        (fun (s : Sim.Network.comm_stats) ->
          s.delivered_rate >= 0.85 *. s.requested_rate)
        r.Sim.Network.comms)

let prop_identical_seeds_identical_reports =
  QCheck.Test.make
    ~name:"identical instances produce bit-identical reports" ~count:10
    (QCheck.make sim_instance_gen)
    (fun params ->
      let mesh, comms = sim_instance params in
      let run_once arena =
        let sol = Routing.Xy.route mesh comms in
        let net = Sim.Network.create ?arena km sol in
        report_digest (Sim.Network.run ~tolerance:0.1 net ~cycles:2_000)
      in
      let local = run_once None in
      let arena = run_once (Some (Sim.Network.Arena.create ())) in
      let spawned = Domain.join (Domain.spawn (fun () -> run_once None)) in
      String.equal local arena && String.equal local spawned)

(* ------------------------------------------------------------------ *)
(* Warmup-convergence early exit *)

let test_early_exit_matches_full_run () =
  let mesh = Noc.Mesh.square 6 in
  let rng = Traffic.Rng.create 42 in
  let comms =
    Traffic.Workload.uniform rng mesh ~n:6
      ~weight:(Traffic.Workload.weight ~lo:200. ~hi:800.)
  in
  let sol = Routing.Xy.route mesh comms in
  check_bool "instance is feasible" true
    (Routing.Evaluate.solution km sol).Routing.Evaluate.feasible;
  let full = Sim.Network.run (Sim.Network.create km sol) ~cycles:12_000 in
  let early =
    Sim.Network.run ~tolerance:0.1 (Sim.Network.create km sol) ~cycles:12_000
  in
  check_bool "converged run exits early" true early.Sim.Network.early_exit;
  check_bool "fewer cycles measured" true
    (early.Sim.Network.cycles < full.Sim.Network.cycles);
  let close a b = Float.abs (a -. b) <= 0.2 *. Float.max 1. (Float.abs b) in
  check_bool "p50 within tolerance of the full run" true
    (close early.Sim.Network.latency_p50 full.Sim.Network.latency_p50);
  check_bool "p95 within tolerance of the full run" true
    (close early.Sim.Network.latency_p95 full.Sim.Network.latency_p95)

let test_overload_never_exits_early () =
  (* A starved communication never reaches its requested rate, so the
     detector must let the run use its whole budget. *)
  let mesh = Noc.Mesh.square 8 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 5) 3000.; comm 1 (coord 1 1) (coord 1 5) 3000. ]
  in
  let sol = Routing.Xy.route mesh comms in
  let net = Sim.Network.create km sol in
  let r = Sim.Network.run ~tolerance:0.25 net ~cycles:8_000 in
  check_bool "no early exit under overload" false r.Sim.Network.early_exit;
  check_int "full budget measured" 8_000 r.Sim.Network.cycles

let test_arena_reuse_bit_identical () =
  let mesh = Noc.Mesh.square 5 in
  let rng = Traffic.Rng.create 7 in
  let mk () =
    Traffic.Workload.uniform rng mesh ~n:5 ~weight:Traffic.Workload.mixed
  in
  let a = mk () and b = mk () in
  let fresh comms =
    let net = Sim.Network.create km (Routing.Xy.route mesh comms) in
    report_digest (Sim.Network.run ~tolerance:0.1 net ~cycles:3_000)
  in
  let fresh_a = fresh a and fresh_b = fresh b in
  let reused arena comms =
    let net = Sim.Network.create ~arena km (Routing.Xy.route mesh comms) in
    report_digest (Sim.Network.run ~tolerance:0.1 net ~cycles:3_000)
  in
  let arena = Sim.Network.Arena.create () in
  check_bool "first arena build matches fresh" true
    (String.equal (reused arena a) fresh_a);
  check_bool "recycled buffers match fresh" true
    (String.equal (reused arena b) fresh_b);
  let domain = Sim.Network.Arena.domain () in
  check_bool "domain arena head bit-identical" true
    (String.equal (reused domain a) fresh_a);
  check_bool "domain arena tail bit-identical" true
    (String.equal (reused domain b) fresh_b)

(* Networks built in one arena do not share buffers: both stay valid. *)
let test_arena_two_live_networks () =
  let mesh = Noc.Mesh.square 5 in
  let rng = Traffic.Rng.create 11 in
  let mk () =
    Traffic.Workload.uniform rng mesh ~n:5 ~weight:Traffic.Workload.mixed
  in
  let a = mk () and b = mk () in
  let digest net =
    report_digest (Sim.Network.run ~tolerance:0.1 net ~cycles:3_000)
  in
  let build ?arena comms =
    Sim.Network.create ?arena km (Routing.Xy.route mesh comms)
  in
  let fresh_a = digest (build a) and fresh_b = digest (build b) in
  let arena = Sim.Network.Arena.create () in
  let net_a = build ~arena a in
  let net_b = build ~arena b in
  check_bool "first network matches fresh" true
    (String.equal (digest net_a) fresh_a);
  check_bool "second network matches fresh" true
    (String.equal (digest net_b) fresh_b)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "sim"
    [
      ("config", [ quick "validation" test_config_validation ]);
      ( "delivery",
        [
          quick "single comm" test_single_comm_full_delivery;
          quick "feasible routing" test_feasible_routing_delivers;
          quick "overload starves" test_overload_starves;
          quick "multipath" test_multipath_delivery;
          quick "walk revisiting a link" test_walk_revisiting_link;
        ] );
      ( "deadlock",
        [
          quick "cycle without escape" test_cyclic_routes_deadlock_without_escape;
          quick "escape saves the cycle" test_cyclic_routes_survive_with_escape;
          quick "escape at two vcs" test_cyclic_routes_escape_at_two_vcs;
        ] );
      ( "stats",
        [
          quick "latency percentiles" test_latency_percentiles;
          quick "idle links off, xy" test_idle_links_off_still_delivers_xy;
          quick "router latency" test_router_latency_slows_packets;
          quick "zero warmup" test_zero_warmup;
        ] );
      ( "faults",
        [
          quick "kill then escape" test_link_kill_escape_delivers;
          quick "kill without escape" test_link_kill_without_escape_deadlocks;
          quick "schedule validation" test_schedule_kill_validation;
        ] );
      ( "validate",
        [
          quick "zero communications" test_validate_zero_comms;
          quick "threshold boundary" test_validate_threshold_boundary;
          quick "deadlock never passes" test_validate_deadlock_never_passes;
        ] );
      ( "api",
        [
          quick "observer" test_observer_events_match_stats;
          quick "link utilization" test_link_utilization_exposed;
          quick "run once" test_run_once_only;
          slow "all heuristics validate" test_all_heuristics_validate_on_easy_instance;
        ] );
      ( "budget",
        [
          quick "validation" test_run_budget_validation;
          quick "tiny budgets measured" test_tiny_budget_measures_every_cycle;
        ] );
      ( "early exit",
        [
          quick "matches full run" test_early_exit_matches_full_run;
          quick "overload runs full budget" test_overload_never_exits_early;
          quick "arena reuse bit-identical" test_arena_reuse_bit_identical;
          quick "two live networks in one arena" test_arena_two_live_networks;
        ] );
      ( "differential oracle",
        [
          QCheck_alcotest.to_alcotest prop_flit_conservation;
          QCheck_alcotest.to_alcotest prop_delivered_rate_converges;
          QCheck_alcotest.to_alcotest prop_identical_seeds_identical_reports;
        ] );
    ]
