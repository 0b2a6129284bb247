type sim_spec = {
  sim_cycles : int;
  sim_tolerance : float option;
  sim_kills : int;
}

type t = {
  id : string;
  title : string;
  xlabel : string;
  xs : float list;
  generate : Traffic.Rng.t -> float -> Traffic.Communication.t list;
  scenario : (Traffic.Rng.t -> float -> Noc.Fault.t) option;
  paired : bool;
  heuristics : (float -> Routing.Heuristic.t list) option;
  sim : (float -> sim_spec) option;
}

let mesh = Noc.Mesh.square 8

(* A healthy, unpaired sweep over the default heuristics: what every
   paper figure is, and what the sweeps beyond it start from. *)
let sweep id title xlabel xs generate =
  {
    id;
    title;
    xlabel;
    xs;
    generate;
    scenario = None;
    paired = false;
    heuristics = None;
    sim = None;
  }

let count_sweep id title weight xs =
  sweep id title "number of communications" (List.map float_of_int xs)
    (fun rng x -> Traffic.Workload.uniform rng mesh ~n:(int_of_float x) ~weight)

let fig7a =
  count_sweep "fig7a" "Fig. 7(a): #comms, small weights" Traffic.Workload.small
    [ 10; 20; 40; 60; 80; 100; 120; 140 ]

let fig7b =
  count_sweep "fig7b" "Fig. 7(b): #comms, mixed weights" Traffic.Workload.mixed
    [ 5; 10; 20; 30; 40; 50; 60; 70 ]

let fig7c =
  count_sweep "fig7c" "Fig. 7(c): #comms, big weights" Traffic.Workload.big
    [ 2; 5; 10; 15; 20; 25; 30 ]

let weight_sweep id title ~n xs =
  sweep id title "average weight (Mb/s)" xs (fun rng x ->
      Traffic.Workload.uniform rng mesh ~n ~weight:(Traffic.Workload.around x))

let fig8a =
  weight_sweep "fig8a" "Fig. 8(a): weight sweep, 10 comms" ~n:10
    [ 250.; 750.; 1250.; 1500.; 1750.; 2000.; 2500.; 3000.; 3250. ]

let fig8b =
  weight_sweep "fig8b" "Fig. 8(b): weight sweep, 20 comms" ~n:20
    [ 250.; 750.; 1250.; 1500.; 1750.; 2000.; 2500.; 3000.; 3250. ]

let fig8c =
  weight_sweep "fig8c" "Fig. 8(c): weight sweep, 40 comms" ~n:40
    [ 200.; 400.; 600.; 800.; 1000.; 1200.; 1400.; 1600.; 1800. ]

let length_sweep id title ~n weight =
  sweep id title "average length (hops)" [ 2.; 4.; 6.; 8.; 10.; 12.; 14. ]
    (fun rng x ->
      Traffic.Workload.with_length rng mesh ~n ~weight ~target:(int_of_float x))

let fig9a =
  length_sweep "fig9a" "Fig. 9(a): length sweep, 100 small comms" ~n:100
    (Traffic.Workload.weight ~lo:200. ~hi:800.)

let fig9b =
  length_sweep "fig9b" "Fig. 9(b): length sweep, 25 mixed comms" ~n:25
    (Traffic.Workload.weight ~lo:100. ~hi:3500.)

let fig9c =
  length_sweep "fig9c" "Fig. 9(c): length sweep, 12 big comms" ~n:12
    (Traffic.Workload.weight ~lo:2700. ~hi:3300.)

(* Fault sweep (beyond the paper): a fixed workload while the x axis kills
   ever more links. Paired figures get a trial rng keyed without x (see
   {!Runner.run}), and the workload is drawn from it before the fault, so
   trial [t] carries the same 32 communications at every x and — because
   {!Noc.Fault.random_dead} samples kills sequentially — each row's dead
   set extends the previous row's. Only the damage level varies along x. *)
let figf =
  {
    (sweep "figf" "Fig. F: fault sweep, 32 small comms vs killed links"
       "killed links" [ 0.; 2.; 4.; 6.; 8.; 10.; 12. ] (fun rng _ ->
         Traffic.Workload.uniform rng mesh ~n:32
           ~weight:Traffic.Workload.small))
    with
    scenario =
      Some
        (fun rng x ->
          Noc.Fault.random_dead ~choose:(Traffic.Rng.int rng)
            ~kills:(int_of_float x) mesh);
    paired = true;
  }

(* The engine sweeps beyond the paper: [n] mixed communications, paired
   like figf — trial [t] draws the same workload at every x — and the six
   single-path cells (flat along x, they ignore its parameter) next to the
   engine cells [extra x]. *)
let engine_sweep id title xlabel ~n xs extra =
  {
    (sweep id title xlabel xs (fun rng _ ->
         Traffic.Workload.uniform rng mesh ~n ~weight:Traffic.Workload.mixed))
    with
    paired = true;
    heuristics = Some (fun x -> Routing.Heuristic.all @ extra x);
  }

(* Split sweep: the x axis is the per-communication path budget [s] of
   the flow-guided s-MP engine, so the SMP column descends along x by
   construction. The mixed-weight workload is dense enough that
   single-path routing sometimes fails outright where splitting is
   certified feasible — the failure-ratio recovery the s-sweep is meant
   to exhibit. *)
let figs =
  engine_sweep "figs" "Fig. S: split sweep, 25 mixed comms vs allowed paths"
    "allowed paths per communication (s)" ~n:25 [ 1.; 2.; 4.; 8. ] (fun x ->
      [ Optim.Smp.heuristic ~name:"SMP" ~s:(int_of_float x) () ])

(* Negotiation sweep: the x axis is the iteration cap of the PathFinder
   rip-up-and-reroute engine, so the PF column can only improve (more
   negotiation passes on the identical instance). The [*_pf_rips] CSV
   column exposes how much ripping each cap actually bought. *)
let figpf =
  engine_sweep "figpf"
    "Fig. PF: negotiation sweep, 25 mixed comms vs iteration cap"
    "PathFinder iteration cap" ~n:25 [ 1.; 2.; 4.; 8.; 16. ] (fun x ->
      [ Optim.Pathfinder.heuristic ~name:"PF" ~iterations:(int_of_float x) () ])

(* Recovery sweep: the x axis is the number of fault events the
   live-recovery engine must survive. The REC engine keys its fault
   schedule off the workload itself (see [Optim.Recover.engine]), so the
   x-event schedule of a trial is a prefix of its (x+k)-event one: only
   the damage history grows along the row. The [*_recover_events] /
   [*_recover_sheds] / [*_recover_rung_max] CSV columns expose how hard
   each x made the escalation ladder work; the single-path cells never
   see the schedule, which lives inside the REC engine. *)
let figrec =
  engine_sweep "figrec"
    "Fig. REC: recovery sweep, 25 mixed comms vs fault events"
    "fault events survived" ~n:25 [ 0.; 2.; 4.; 8.; 12.; 16. ] (fun x ->
      [ Optim.Recover.heuristic ~name:"REC" ~events:(int_of_float x) () ])

(* Pareto sweep: every heuristic point is scored on three objectives —
   model power, simulated p50/p95 packet latency, and the
   fault-degradation slope under two deterministic link kills — and each
   trial emits its non-dominated front. The x axis sweeps the simulator's
   measured-cycle budget, so the only thing moving along x (the same 12
   communications, the same slope fault) is measurement fidelity. The
   early-exit tolerance keeps converged runs cheap; an overloaded
   solution still burns its full budget (it never converges), which is
   exactly the regime where the extra cycles matter. *)
let figpareto =
  {
    (engine_sweep "figpareto"
       "Fig. P: Pareto sweep, 12 mixed comms vs sim cycle budget"
       "simulated measured cycles" ~n:12 [ 500.; 1000.; 2000. ] (fun _ ->
         [ Optim.Smp.heuristic ~name:"SMP" ~s:2 () ]))
    with
    sim =
      Some
        (fun x ->
          {
            sim_cycles = int_of_float x;
            sim_tolerance = Some 0.1;
            sim_kills = 2;
          });
  }

(* Serve sweep: the workload is routed {e as a stream} — Poisson
   arrivals of the resident communications merged with a draining churn
   stream — and the x axis sweeps the arrival rate, i.e. the
   steady-state concurrency the online engine must hold (Little's law).
   The SRV engines key their traces off the workload itself (see
   [Optim.Online.engine]), so only the stream tempo varies along the
   row. Two served cells ride the sweep: SRV with idle-link switch-off
   and SRV0 with it disabled; the [*_srv_power] / [*_srv_saved] /
   [*_srv_p95] CSV columns carry the power-over-time, saving-ratio and
   work-tail aggregates, and the batch heuristics stay flat as the
   offline baseline. *)
let figserve =
  engine_sweep "figserve"
    "Fig. SRV: serve sweep, 20 mixed comms vs arrival rate"
    "arrival rate (communications per unit time)" ~n:20 [ 2.; 4.; 8.; 16. ]
    (fun x ->
      [
        Optim.Online.heuristic ~name:"SRV" ~rate:x ();
        Optim.Online.heuristic ~name:"SRV0" ~rate:x ~sleep:false ();
      ])

let all =
  [
    fig7a;
    fig7b;
    fig7c;
    fig8a;
    fig8b;
    fig8c;
    fig9a;
    fig9b;
    fig9c;
    figf;
    figs;
    figpf;
    figrec;
    figserve;
    figpareto;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun f -> f.id = id) all
