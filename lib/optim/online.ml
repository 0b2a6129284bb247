(* Long-lived incremental routing service (see online.mli). *)

let default_idle_epochs = 2
let default_refine_iterations = 4
let default_global_iterations = 16
let default_rate = 8.
let default_churn = 40

type shed = { comm : Traffic.Communication.t; reason : Recover.shed_reason }

type power_split = {
  dynamic : float;
  active_leak : float;
  idle_leak : float;
  saved_leak : float;
  wake_cost : float;
}

let split_total s = s.dynamic +. s.active_leak +. s.idle_leak +. s.wake_cost

type op = {
  seq : int;
  time : float;
  kind : Traffic.Trace.kind;
  rung : int;
  admitted : bool;
  live : int;
  shed_now : shed list;
  readmitted : Traffic.Communication.t list;
  passes : int;
  rips : int;
  reroutes : int;
  wakes : int;
  sleeps : int;
  power : power_split;
  eval : Routing.Evaluate.report;
  work : Routing.Metrics.counters;
}

type t = {
  model : Power.Model.t;
  mesh : Noc.Mesh.t;
  fault : Noc.Fault.t;
  idle_epochs : int;
  wake_penalty : float;
  sleep : bool;
  refine_iterations : int;
  global_iterations : int;
  history : float array;
  mutable eng : Routing.Delta.t;
  mutable live_routes : (int * Routing.Solution.route) list;
      (* admission order; the engine's loads are always the canonical
         fold of this list over a fresh engine *)
  mutable pending_shed : shed list;  (* oldest first *)
  awake : bool array;
  idle_for : int array;
  mutable seq : int;
  mutable sum_total : float;
  mutable sum_nosleep : float;
  mutable works : float list;  (* per-op delta_evals, reversed *)
  mutable s_arrivals : int;
  mutable s_departures : int;
  mutable s_admitted : int;
  mutable s_shed : int;
  mutable s_readmitted : int;
  mutable s_wakes : int;
  mutable s_sleeps : int;
  mutable peak_live : int;
  mutable rung_max : int;
}

let create ?fault ?(idle_epochs = default_idle_epochs) ?wake_penalty
    ?(sleep = true) ?(refine_iterations = default_refine_iterations)
    ?(global_iterations = default_global_iterations) model mesh =
  if idle_epochs < 1 then invalid_arg "Online.create: idle_epochs < 1";
  (match wake_penalty with
  | Some w when w < 0. -> invalid_arg "Online.create: wake_penalty < 0"
  | _ -> ());
  if refine_iterations < 0 then
    invalid_arg "Online.create: refine_iterations < 0";
  if global_iterations < 0 then
    invalid_arg "Online.create: global_iterations < 0";
  let fault =
    match fault with Some f -> f | None -> Noc.Fault.healthy mesh
  in
  let wake_penalty =
    match wake_penalty with
    | Some w -> w
    | None -> model.Power.Model.p_leak
  in
  let nl = Noc.Mesh.num_links mesh in
  {
    model;
    mesh;
    fault;
    idle_epochs;
    wake_penalty;
    sleep;
    refine_iterations;
    global_iterations;
    history = Array.make nl 0.;
    eng = Routing.Delta.create ~fault model mesh;
    live_routes = [];
    pending_shed = [];
    awake = Array.make nl true;
    idle_for = Array.make nl 0;
    seq = 0;
    sum_total = 0.;
    sum_nosleep = 0.;
    works = [];
    s_arrivals = 0;
    s_departures = 0;
    s_admitted = 0;
    s_shed = 0;
    s_readmitted = 0;
    s_wakes = 0;
    s_sleeps = 0;
    peak_live = 0;
    rung_max = 0;
  }

let live t = List.length t.live_routes

let solution t =
  Routing.Solution.make t.mesh (List.map snd t.live_routes)

(* Canonical rebuild: fold the live routes in admission order over a
   fresh engine, so {!Routing.Delta.report} is the very report a
   from-scratch [Evaluate.of_loads] computes — negotiation and removal
   arithmetic never leaks into the served state. *)
let rebuild t =
  let eng = Routing.Delta.create ~fault:t.fault t.model t.mesh in
  List.iter (fun (_, r) -> Routing.Delta.add_route eng r) t.live_routes;
  t.eng <- eng

(* Negotiate the live routes selected by [pred] on the current engine;
   updates the route list in place (admission order preserved). *)
let negotiate t ~iterations pred =
  let lives = Array.of_list t.live_routes in
  let idxs = ref [] in
  for i = Array.length lives - 1 downto 0 do
    if pred (snd lives.(i)) then idxs := i :: !idxs
  done;
  if iterations = 0 || !idxs = [] then (0, 0)
  else begin
    let idxs = Array.of_list !idxs in
    let cand = Array.map (fun i -> snd lives.(i)) idxs in
    let r = Pathfinder.refine ~iterations ~history:t.history t.eng cand in
    Array.iteri
      (fun k i -> lives.(i) <- (fst lives.(i), r.Pathfinder.routes.(k)))
      idxs;
    t.live_routes <- Array.to_list lives;
    (r.Pathfinder.passes, r.Pathfinder.rips)
  end

exception No_offender

(* Shed the lightest live route crossing a convicted link until the
   state is feasible (the empty state is). *)
let shed_until_feasible t ~reason shed_now =
  let rep = ref (Routing.Delta.report t.eng) in
  (try
     while not !rep.Routing.Evaluate.feasible do
       let over = Routing.Evaluate.overload_mask t.mesh !rep in
       let pick = ref None in
       List.iter
         (fun (id, (r : Routing.Solution.route)) ->
           if Routing.Solution.route_crosses t.mesh over r then
             match !pick with
             | Some (_, (p : Routing.Solution.route))
               when p.comm.Traffic.Communication.rate
                    <= r.comm.Traffic.Communication.rate ->
                 ()
             | _ -> pick := Some (id, r))
         t.live_routes;
       match !pick with
       | None ->
           (* Unreachable: an overloaded link carries some live route's
              rate. Guarded anyway — shedding must never spin. *)
           raise No_offender
       | Some (id, r) ->
           Routing.Delta.remove_route t.eng r;
           t.live_routes <- List.filter (fun (i, _) -> i <> id) t.live_routes;
           let s = { comm = r.comm; reason } in
           t.pending_shed <- t.pending_shed @ [ s ];
           t.s_shed <- t.s_shed + 1;
           shed_now := s :: !shed_now;
           rep := Routing.Delta.report t.eng
     done
   with No_offender -> ())

(* Speculative readmission of the shed queue, oldest first: kept only
   when the whole state stays feasible, rolled back bit-exactly
   otherwise. *)
let readmit t reroutes readmitted =
  let still = ref [] in
  List.iter
    (fun s ->
      incr reroutes;
      let kept = ref false in
      (match
         Routing.Repair.local_route t.fault
           (Routing.Delta.scorer_of t.eng)
           s.comm
       with
      | None -> ()
      | Some r ->
          let m = Routing.Delta.mark t.eng in
          Routing.Delta.add_route t.eng r;
          let rep = Routing.Delta.report t.eng in
          if rep.Routing.Evaluate.feasible then begin
            Routing.Delta.commit t.eng m;
            t.live_routes <-
              t.live_routes @ [ (s.comm.Traffic.Communication.id, r) ];
            t.s_readmitted <- t.s_readmitted + 1;
            readmitted := s.comm :: !readmitted;
            kept := true
          end
          else Routing.Delta.rollback t.eng m);
      if not !kept then still := s :: !still)
    t.pending_shed;
  t.pending_shed <- List.rev !still

(* Per-epoch sleep bookkeeping over the final loads: traffic wakes a
   sleeping link (one penalty), sustained zero occupancy past the
   hysteresis switches it off. Dead links are outside the leakage pool
   (the fault already powered them down). *)
let sleep_scan t =
  let loads = Routing.Delta.loads t.eng in
  let wakes = ref 0
  and sleeps = ref 0
  and idle_awake = ref 0
  and asleep = ref 0 in
  for id = 0 to Noc.Mesh.num_links t.mesh - 1 do
    if Noc.Load.usable loads id then
      if Noc.Load.get loads id > 0. then begin
        if not t.awake.(id) then begin
          t.awake.(id) <- true;
          incr wakes
        end;
        t.idle_for.(id) <- 0
      end
      else if t.awake.(id) then begin
        t.idle_for.(id) <- t.idle_for.(id) + 1;
        if t.sleep && t.idle_for.(id) >= t.idle_epochs then begin
          t.awake.(id) <- false;
          incr sleeps;
          incr asleep
        end
        else incr idle_awake
      end
      else incr asleep
  done;
  (!wakes, !sleeps, !idle_awake, !asleep)

let step t (event : Traffic.Trace.event) =
  Routing.Metrics.with_span "serve" @@ fun () ->
  let before = Routing.Metrics.snapshot () in
  let seq = t.seq in
  t.seq <- seq + 1;
  let rung = ref 1 in
  let admitted = ref false in
  let shed_now = ref [] in
  let readmitted = ref [] in
  let passes = ref 0
  and rips = ref 0
  and reroutes = ref 0 in
  (match event.Traffic.Trace.kind with
  | Traffic.Trace.Arrive comm -> (
      t.s_arrivals <- t.s_arrivals + 1;
      incr reroutes;
      match
        Routing.Repair.local_route t.fault (Routing.Delta.scorer_of t.eng) comm
      with
      | None ->
          (* The fault disconnects the endpoints: park the request for
             readmission once capacity returns. *)
          rung := 5;
          let s = { comm; reason = Recover.Disconnected } in
          t.pending_shed <- t.pending_shed @ [ s ];
          t.s_shed <- t.s_shed + 1;
          shed_now := [ s ]
      | Some r ->
          let m = Routing.Delta.mark t.eng in
          Routing.Delta.add_route t.eng r;
          let rep = Routing.Delta.report t.eng in
          Routing.Delta.commit t.eng m;
          t.live_routes <-
            t.live_routes @ [ (comm.Traffic.Communication.id, r) ];
          if rep.Routing.Evaluate.feasible then
            (* Clean admit: an append in admission order is already
               canonical — the O(path-length) fast path, no rebuild. *)
            admitted := true
          else begin
            (* Escalate per the Recover ladder: neighborhood
               negotiation, then global, then typed shedding. *)
            rung := 3;
            let over = Routing.Evaluate.overload_mask t.mesh rep in
            let p3, r3 =
              negotiate t ~iterations:t.refine_iterations
                (Routing.Solution.route_crosses t.mesh over)
            in
            passes := !passes + p3;
            rips := !rips + r3;
            let rep = Routing.Delta.report t.eng in
            if not rep.Routing.Evaluate.feasible then begin
              rung := 4;
              let p4, r4 =
                negotiate t ~iterations:t.global_iterations (fun _ -> true)
              in
              passes := !passes + p4;
              rips := !rips + r4
            end;
            let rep = Routing.Delta.report t.eng in
            if not rep.Routing.Evaluate.feasible then begin
              rung := 5;
              (* Negotiation quits only at its sweep caps, so an
                 infeasible outcome with no caps configured means the
                 ladder was never allowed to run. *)
              let reason =
                if t.refine_iterations + t.global_iterations = 0 then
                  Recover.Budget_exhausted
                else Recover.Infeasible_overload
              in
              shed_until_feasible t ~reason shed_now
            end;
            admitted :=
              List.exists
                (fun (id, _) -> id = comm.Traffic.Communication.id)
                t.live_routes;
            rebuild t
          end;
          if !admitted then t.s_admitted <- t.s_admitted + 1)
  | Traffic.Trace.Depart id -> (
      t.s_departures <- t.s_departures + 1;
      match List.assoc_opt id t.live_routes with
      | None ->
          (* Shed at admission (or unknown): the request gives up and
             leaves the retry queue. *)
          t.pending_shed <-
            List.filter
              (fun s -> s.comm.Traffic.Communication.id <> id)
              t.pending_shed
      | Some r ->
          let touched = Array.make (Noc.Mesh.num_links t.mesh) false in
          Routing.Solution.iter_route_links r (fun l ->
              touched.(Noc.Mesh.link_id t.mesh l) <- true);
          Routing.Delta.remove_route t.eng r;
          t.live_routes <-
            List.filter (fun (i, _) -> i <> id) t.live_routes;
          (* Local re-optimization of the freed neighborhood: every
             live route crossing a released link gets one cheaper-path
             retry, kept only when total power strictly drops. *)
          t.live_routes <-
            List.map
              (fun (i, (r0 : Routing.Solution.route)) ->
                if not (Routing.Solution.route_crosses t.mesh touched r0) then
                  (i, r0)
                else begin
                  incr reroutes;
                  let rep0 = Routing.Delta.report t.eng in
                  let m = Routing.Delta.mark t.eng in
                  Routing.Delta.remove_route t.eng r0;
                  match
                    Routing.Repair.local_route t.fault
                      (Routing.Delta.scorer_of t.eng)
                      r0.comm
                  with
                  | None ->
                      Routing.Delta.rollback t.eng m;
                      (i, r0)
                  | Some r1 ->
                      Routing.Delta.add_route t.eng r1;
                      let rep1 = Routing.Delta.report t.eng in
                      if
                        rep1.Routing.Evaluate.feasible
                        && rep1.Routing.Evaluate.total_power
                           < rep0.Routing.Evaluate.total_power
                      then begin
                        Routing.Delta.commit t.eng m;
                        rung := max !rung 2;
                        (i, r1)
                      end
                      else begin
                        Routing.Delta.rollback t.eng m;
                        (i, r0)
                      end
                end)
              t.live_routes;
          if t.pending_shed <> [] then readmit t reroutes readmitted;
          rebuild t));
  let eval = Routing.Delta.report t.eng in
  let wakes, sleeps, idle_awake, asleep = sleep_scan t in
  let p_leak = t.model.Power.Model.p_leak in
  let power =
    {
      dynamic = eval.Routing.Evaluate.dynamic_power;
      active_leak = eval.Routing.Evaluate.static_power;
      idle_leak = p_leak *. float_of_int idle_awake;
      saved_leak = p_leak *. float_of_int asleep;
      wake_cost = t.wake_penalty *. float_of_int wakes;
    }
  in
  t.sum_total <- t.sum_total +. split_total power;
  (* Accumulate the always-awake column through the exact expression a
     switch-off-disabled run evaluates — one multiply over the combined
     idle count, zero wake term — so [mean_power_nosleep] is
     bit-identical to that run's [mean_power] (summing the already
     rounded [idle_leak] and [saved_leak] parts is not: float addition
     does not distribute over the split). *)
  t.sum_nosleep <-
    t.sum_nosleep
    +. split_total
         {
           power with
           idle_leak = p_leak *. float_of_int (idle_awake + asleep);
           saved_leak = 0.;
           wake_cost = 0.;
         };
  let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
  t.works <- float_of_int work.Routing.Metrics.delta_evals :: t.works;
  t.s_wakes <- t.s_wakes + wakes;
  t.s_sleeps <- t.s_sleeps + sleeps;
  t.peak_live <- max t.peak_live (live t);
  t.rung_max <- max t.rung_max !rung;
  {
    seq;
    time = event.Traffic.Trace.time;
    kind = event.Traffic.Trace.kind;
    rung = !rung;
    admitted = !admitted;
    live = live t;
    shed_now = List.rev !shed_now;
    readmitted = List.rev !readmitted;
    passes = !passes;
    rips = !rips;
    reroutes = !reroutes;
    wakes;
    sleeps;
    power;
    eval;
    work;
  }

let serve t events = List.map (step t) events

type session = {
  ops : int;
  s_arrivals : int;
  s_departures : int;
  s_admitted : int;
  s_shed : int;
  s_readmitted : int;
  s_wakes : int;
  s_sleeps : int;
  peak_live : int;
  final_live : int;
  rung_max : int;
  mean_power : float;
  mean_power_nosleep : float;
  saved_ratio : float;
  p50_work : float;
  p95_work : float;
  final : Routing.Evaluate.report;
}

(* Nearest-rank quantile over a sorted array — the same rule as the
   harness Summary machinery, restated here because [optim] sits below
   [harness] in the library stack. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0
              (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let session t =
  let ops = t.seq in
  let works = Array.of_list (List.rev t.works) in
  Array.sort Float.compare works;
  let mean_power =
    if ops = 0 then 0. else t.sum_total /. float_of_int ops
  in
  let mean_power_nosleep =
    if ops = 0 then 0. else t.sum_nosleep /. float_of_int ops
  in
  {
    ops;
    s_arrivals = t.s_arrivals;
    s_departures = t.s_departures;
    s_admitted = t.s_admitted;
    s_shed = t.s_shed;
    s_readmitted = t.s_readmitted;
    s_wakes = t.s_wakes;
    s_sleeps = t.s_sleeps;
    peak_live = t.peak_live;
    final_live = live t;
    rung_max = t.rung_max;
    mean_power;
    mean_power_nosleep;
    saved_ratio =
      (if mean_power_nosleep <= 0. then 0.
       else 1. -. (mean_power /. mean_power_nosleep));
    p50_work = quantile works 0.50;
    p95_work = quantile works 0.95;
    final = Routing.Delta.report t.eng;
  }

(* Churn weights spanning the workload's own rate band, so the passing
   traffic stresses the same capacity regime. *)
let band comms =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (c : Traffic.Communication.t) ->
        (Float.min lo c.rate, Float.max hi c.rate))
      (infinity, 0.) comms
  in
  Traffic.Workload.weight ~lo ~hi

type Routing.Heuristic.note += Session of session

let engine ?(rate = default_rate) ?(churn = default_churn) ?idle_epochs
    ?wake_penalty ?sleep ?fault model mesh comms =
  if rate <= 0. then invalid_arg "Online.engine: rate <= 0";
  if churn < 0 then invalid_arg "Online.engine: churn < 0";
  if comms = [] then (Routing.Solution.make mesh [], None)
  else begin
    let rng = Traffic.Workload.keyed_rng "serve-trace" comms in
    let max_id =
      List.fold_left
        (fun m (c : Traffic.Communication.t) -> max m c.id)
        0 comms
    in
    let churn_events =
      Traffic.Trace.generate ~id_base:(max_id + 1) rng mesh
        ~profile:Traffic.Trace.Poisson ~arrivals:churn ~rate
        ~weight:(band comms)
    in
    let resident = Traffic.Trace.persistent rng ~rate comms in
    let events = Traffic.Trace.merge churn_events resident in
    let t = create ?fault ?idle_epochs ?wake_penalty ?sleep model mesh in
    ignore (serve t events);
    (solution t, Some (session t))
  end

let heuristic ?name ?rate ?sleep () =
  (match rate with
  | Some r when r <= 0. -> invalid_arg "Online.heuristic: rate <= 0"
  | _ -> ());
  let name = match name with Some n -> n | None -> "SRV" in
  Routing.Heuristic.of_noted ~name
    ~description:
      (Printf.sprintf
         "online service: workload served as a streaming trace (%g \
          arrivals/unit-time + %d churn) with delta-scored admission, \
          departure re-optimization and idle-link switch-off%s"
         (Option.value ~default:default_rate rate)
         default_churn
         (match sleep with Some false -> " disabled" | _ -> ""))
    (fun ?fault model mesh comms ->
      let solution, session = engine ?rate ?sleep ?fault model mesh comms in
      (solution, Option.map (fun s -> Session s) session))

let find name =
  Option.map
    (fun rate ->
      heuristic
        ~name:(Printf.sprintf "SRV%d" rate)
        ~rate:(float_of_int rate) ())
    (Routing.Heuristic.parse_family ~prefix:"srv"
       ~default:(int_of_float default_rate) ~min:1 name)
