(* Incremental fault-event recovery (see recover.mli). *)

let rung3_iterations = 4
let rung4_iterations = 16
let default_events = 8

let bump_events () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.recover_events <- m.Routing.Metrics.recover_events + 1

let bump_sheds () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.recover_sheds <- m.Routing.Metrics.recover_sheds + 1

let bump_rung r =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.recover_rung_max <- m.Routing.Metrics.recover_rung_max + r

type shed_reason = Disconnected | Budget_exhausted | Infeasible_overload

let reason_to_string = function
  | Disconnected -> "disconnected"
  | Budget_exhausted -> "budget-exhausted"
  | Infeasible_overload -> "infeasible-overload"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

type shed = { comm : Traffic.Communication.t; reason : shed_reason }

type report = {
  event : Noc.Fault.Schedule.event;
  rung : int;
  live : int;
  shed_now : shed list;
  readmitted : Traffic.Communication.t list;
  survival : float;
  power_before : float;
  power_after : float;
  eval : Routing.Evaluate.report;
  passes : int;
  rips : int;
  reroutes : int;
  work : Routing.Metrics.counters;
}

type t = {
  model : Power.Model.t;
  mesh : Noc.Mesh.t;
  mutable fault : Noc.Fault.t;
  comms : Traffic.Communication.t array;
  routes : Routing.Solution.route option array;
  reasons : shed_reason option array;
  history : float array;
  budget : int;
  mutable power : float;
}

let fault t = t.fault

let live_routes t =
  List.filter_map Fun.id (Array.to_list t.routes)

let solution t = Routing.Solution.make t.mesh (live_routes t)

let shed t =
  let out = ref [] in
  Array.iteri
    (fun i -> function
      | Some reason -> out := { comm = t.comms.(i); reason } :: !out
      | None -> ())
    t.reasons;
  List.rev !out

let create ?fault ?budget model solution =
  let budget =
    match budget with
    | None -> rung3_iterations + rung4_iterations
    | Some b -> if b < 0 then invalid_arg "Recover.create: budget < 0" else b
  in
  let mesh = Routing.Solution.mesh solution in
  let fault =
    match fault with Some f -> f | None -> Noc.Fault.healthy mesh
  in
  let routes = Array.of_list (Routing.Solution.routes solution) in
  let power =
    (Routing.Evaluate.solution ~fault model solution)
      .Routing.Evaluate.total_power
  in
  {
    model;
    mesh;
    fault;
    comms = Array.map (fun (r : Routing.Solution.route) -> r.comm) routes;
    routes = Array.map Option.some routes;
    reasons = Array.map (fun _ -> None) routes;
    history = Array.make (Noc.Mesh.num_links mesh) 0.;
    budget;
    power;
  }

(* Rung 5: shed the lightest route of [lives] crossing a link the
   report convicts — the first in [lives] order on ties — until the
   state is feasible, as the empty state is. Every overloaded link
   carries some live route's rate, so the no-pick case is unreachable;
   it is guarded anyway, since shedding must never spin. *)
let shed_lightest eng rep lives shed =
  let mesh = Noc.Load.mesh (Routing.Delta.loads eng) in
  let rec go (rep : Routing.Evaluate.report) lives =
    if not rep.feasible then begin
      let over = Routing.Evaluate.overload_mask mesh rep in
      let pick =
        List.fold_left
          (fun pick ((_, (r : Routing.Solution.route)) as kr) ->
            if not (Routing.Solution.route_crosses mesh over r) then pick
            else
              match pick with
              | Some (_, (p : Routing.Solution.route))
                when p.comm.Traffic.Communication.rate
                     <= r.comm.Traffic.Communication.rate ->
                  pick
              | _ -> Some kr)
          None lives
      in
      match pick with
      | None -> ()
      | Some ((k, r) as kr) ->
          Routing.Delta.remove_route eng r;
          shed k r;
          go (Routing.Delta.report eng) (List.filter (( != ) kr) lives)
    end
  in
  go rep lives

(* Speculative readmission: route [comm] locally and keep it only when
   the whole state stays feasible, rolled back bit-exactly otherwise. *)
let readmit eng comm =
  match Routing.Repair.local_route (Routing.Delta.scorer_of eng) comm with
  | None -> None
  | Some r ->
      let m = Routing.Delta.mark eng in
      Routing.Delta.add_route eng r;
      if (Routing.Delta.report eng).Routing.Evaluate.feasible then begin
        Routing.Delta.commit eng m;
        Some r
      end
      else begin
        Routing.Delta.rollback eng m;
        None
      end

let step t event =
  bump_events ();
  Routing.Metrics.with_span "recover" @@ fun () ->
  let before = Routing.Metrics.snapshot () in
  t.fault <- Noc.Fault.Schedule.apply t.fault event;
  let eng = Routing.Delta.create ~fault:t.fault t.model t.mesh in
  let sc = Routing.Delta.scorer_of eng in
  let n = Array.length t.comms in
  let rung = ref 1 in
  let reroutes = ref 0 in
  let passes = ref 0 and rips = ref 0 in
  let shed_now = ref [] in
  let shed_this_event = Array.make n false in
  let shed i reason =
    bump_sheds ();
    t.routes.(i) <- None;
    t.reasons.(i) <- Some reason;
    shed_this_event.(i) <- true;
    shed_now := { comm = t.comms.(i); reason } :: !shed_now
  in
  (* Rung 1: keep every route whose links all survive. *)
  let severed = ref [] in
  for i = 0 to n - 1 do
    match t.routes.(i) with
    | Some r ->
        if Routing.Repair.route_usable t.fault r then
          Routing.Delta.add_route eng r
        else begin
          t.routes.(i) <- None;
          severed := i :: !severed
        end
    | None -> ()
  done;
  let severed = List.rev !severed in
  (* Rung 2: minimal local repair of the severed routes, in solution
     order against the running loads (the {!Routing.Repair} pass,
     incrementally). A disconnected communication is shed right away —
     graceful degradation, the ladder's bottom rung. *)
  if severed <> [] then rung := 2;
  List.iter
    (fun i ->
      incr reroutes;
      match Routing.Repair.local_route sc t.comms.(i) with
      | Some r ->
          Routing.Delta.add_route eng r;
          t.routes.(i) <- Some r
      | None ->
          rung := 5;
          shed i Disconnected)
    severed;
  let budget_left = ref t.budget in
  let truncated = ref false in
  let rep = ref (Routing.Delta.report eng) in
  let refine_rung level ~configured idxs =
    let iterations = min configured !budget_left in
    if iterations < configured then truncated := true;
    if iterations > 0 && idxs <> [] then begin
      rung := max !rung level;
      let idxs = Array.of_list idxs in
      let cand = Array.map (fun i -> Option.get t.routes.(i)) idxs in
      let r = Pathfinder.refine ~iterations ~history:t.history eng cand in
      budget_left := !budget_left - r.Pathfinder.passes;
      passes := !passes + r.Pathfinder.passes;
      rips := !rips + r.Pathfinder.rips;
      Array.iteri (fun k i -> t.routes.(i) <- Some r.Pathfinder.routes.(k)) idxs;
      rep := Routing.Delta.report eng
    end
  in
  if not !rep.Routing.Evaluate.feasible then begin
    (* Rung 3: neighborhood negotiation — only the live routes crossing
       the links this event touched or the report convicts. *)
    let over = Routing.Evaluate.overload_mask t.mesh !rep in
    List.iter
      (fun id -> over.(id) <- true)
      (Noc.Fault.Schedule.touched t.mesh event);
    let neighborhood = ref [] in
    for i = n - 1 downto 0 do
      match t.routes.(i) with
      | Some r when Routing.Solution.route_crosses t.mesh over r ->
          neighborhood := i :: !neighborhood
      | _ -> ()
    done;
    refine_rung 3 ~configured:rung3_iterations !neighborhood;
    (* Rung 4: global negotiation over every live route. *)
    if not !rep.Routing.Evaluate.feasible then begin
      let all = ref [] in
      for i = n - 1 downto 0 do
        match t.routes.(i) with
        | Some _ -> all := i :: !all
        | None -> ()
      done;
      refine_rung 4 ~configured:rung4_iterations !all
    end;
    (* Rung 5: graceful degradation — shed the lightest offenders until
       the remainder is feasible. *)
    if not !rep.Routing.Evaluate.feasible then begin
      rung := 5;
      let reason =
        if !truncated then Budget_exhausted else Infeasible_overload
      in
      shed_lightest eng !rep
        (List.filter_map
           (fun i -> Option.map (fun r -> (i, r)) t.routes.(i))
           (List.init n Fun.id))
        (fun i _ -> shed i reason)
    end
  end;
  (* Readmission: previously-shed communications get one speculative
     try per event (capacity may have returned via [Restore], or other
     routes moved away). *)
  let readmitted = ref [] in
  for i = 0 to n - 1 do
    match (t.routes.(i), t.reasons.(i)) with
    | None, Some _ when not shed_this_event.(i) -> (
        incr reroutes;
        match readmit eng t.comms.(i) with
        | None -> ()
        | Some r ->
            t.routes.(i) <- Some r;
            t.reasons.(i) <- None;
            readmitted := t.comms.(i) :: !readmitted)
    | _ -> ()
  done;
  bump_rung !rung;
  (* Canonical rebuild in solution order: the event's rip-up arithmetic
     never leaks into [eval]. *)
  let final = live_routes t in
  let eval =
    Routing.Delta.report
      (Routing.Delta.of_routes ~fault:t.fault t.model t.mesh final)
  in
  let power_before = t.power in
  t.power <- eval.Routing.Evaluate.total_power;
  {
    event;
    rung = !rung;
    live = List.length final;
    shed_now = List.rev !shed_now;
    readmitted = List.rev !readmitted;
    survival =
      (if n = 0 then 1. else float_of_int (List.length final) /. float_of_int n);
    power_before;
    power_after = eval.Routing.Evaluate.total_power;
    eval;
    passes = !passes;
    rips = !rips;
    reroutes = !reroutes;
    work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before;
  }

let run ?fault ?budget model solution schedule =
  let mesh = Routing.Solution.mesh solution in
  let smesh = Noc.Fault.Schedule.mesh schedule in
  if Noc.Mesh.rows mesh <> Noc.Mesh.rows smesh
     || Noc.Mesh.cols mesh <> Noc.Mesh.cols smesh
  then invalid_arg "Recover.run: schedule mesh differs from solution mesh";
  let t = create ?fault ?budget model solution in
  let reports = List.map (step t) (Noc.Fault.Schedule.events schedule) in
  (t, reports)

type Routing.Heuristic.note += Reports of report list

let engine ?(events = default_events) ?fault model mesh comms =
  if events < 0 then invalid_arg "Recover.engine: events < 0";
  if comms = [] then (Routing.Solution.make mesh [], None)
  else begin
    let base = Routing.Best.baseline ?fault model mesh comms in
    let rng = Traffic.Workload.keyed_rng "recover-schedule" comms in
    let schedule =
      Noc.Fault.Schedule.random ?init:fault
        ~choose:(fun b -> Traffic.Rng.int rng b)
        ~events mesh
    in
    let t, reports = run ?fault model base.Routing.Best.solution schedule in
    (solution t, Some reports)
  end

let heuristic ?name ?events () =
  (match events with
  | Some e when e < 0 -> invalid_arg "Recover.heuristic: events < 0"
  | _ -> ());
  let name = match name with Some n -> n | None -> "REC" in
  Routing.Heuristic.of_noted ~name
    ~description:
      (Printf.sprintf
         "live recovery: %d-event deterministic fault schedule survived by \
          escalating incremental repair with typed shedding"
         (Option.value ~default:default_events events))
    (fun ?fault model mesh comms ->
      let solution, reports = engine ?events ?fault model mesh comms in
      (solution, Option.map (fun r -> Reports r) reports))

let find name =
  Option.map
    (fun events -> heuristic ~name:(Printf.sprintf "REC%d" events) ~events ())
    (Routing.Heuristic.parse_family ~prefix:"rec" ~default:default_events
       ~min:0 name)
