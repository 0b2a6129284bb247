(* Negotiated-congestion rip-up-and-reroute (see pathfinder.mli). *)

let default_iterations = 32

let bump_iterations () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.pf_iterations <- m.Routing.Metrics.pf_iterations + 1

let bump_rips () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.pf_rips <- m.Routing.Metrics.pf_rips + 1

type outcome = {
  solution : Routing.Solution.t;
  report : Routing.Evaluate.report;
  iterations : int;
  rips : int;
}

(* Negotiated cost of routing [rate] more units over one link:
   base (the marginal memoized penalized power, two journal lookups)
   times the present-congestion and history factors. Dead links are
   excluded by the callers, so [phi > 0]. *)
let link_cost sc loads history ~capacity ~rate id =
  let before = Noc.Load.get loads id in
  let planned = before +. rate in
  let base =
    Routing.Delta.cost sc id planned -. Routing.Delta.cost sc id before
  in
  let phi = Noc.Load.factor loads id in
  let eff = if phi = 1. then planned else planned /. phi in
  let present =
    if eff > capacity then (eff -. capacity) /. capacity else 0.
  in
  base *. (1. +. present) *. (1. +. history.(id))

(* The candidate leaves the link inside its degraded frequency range —
   the per-link negation of "overloaded" that {!Routing.Evaluate}'s
   report applies, planned one rate ahead. *)
let link_fits model loads ~rate id =
  Power.Model.is_feasible_capped model
    ~factor:(Noc.Load.factor loads id)
    (Noc.Load.get loads id +. rate)

(* Cheapest surviving walk over the whole mesh (Dijkstra on the directed
   links, negotiated cost): the widening step when the rectangle is cut
   or congested. The node settled next is the cheapest, then the one of
   fewer hops, then the one of smallest core index: that rule alone picks
   among equal walks (a node relaxes each neighbour through its one link,
   so their order cannot matter), as deterministic as the BFS detours of
   {!Routing.Repair}. *)
let widened_search sc loads history ~capacity (comm : Traffic.Communication.t)
    =
  let mesh = Noc.Load.mesh loads in
  let rate = comm.rate in
  let n = Noc.Mesh.num_cores mesh in
  let dist = Array.make n infinity in
  let hops = Array.make n max_int in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let src = Noc.Mesh.core_index mesh comm.src
  and snk = Noc.Mesh.core_index mesh comm.snk in
  dist.(src) <- 0.;
  hops.(src) <- 0;
  (try
     for _ = 1 to n do
       let u = ref (-1) in
       for v = 0 to n - 1 do
         if
           (not visited.(v))
           && dist.(v) < infinity
           && (!u < 0
              || dist.(v) < dist.(!u)
              || (dist.(v) = dist.(!u) && hops.(v) < hops.(!u)))
         then u := v
       done;
       let u = !u in
       if u < 0 || u = snk then raise Exit;
       visited.(u) <- true;
       Noc.Mesh.iter_neighbors mesh (Noc.Mesh.core_of_index mesh u)
         (fun v id _ ->
           if Noc.Load.usable loads id then begin
             let c =
               dist.(u) +. link_cost sc loads history ~capacity ~rate id
             in
             let h = hops.(u) + 1 in
             if
               (not visited.(v))
               && (c < dist.(v) || (c = dist.(v) && h < hops.(v)))
             then begin
               dist.(v) <- c;
               hops.(v) <- h;
               parent.(v) <- u
             end
           end)
     done
   with Exit -> ());
  if dist.(snk) = infinity then None
  else begin
    let rev = ref [ comm.snk ] in
    let cur = ref snk in
    while !cur <> src do
      let p = parent.(!cur) in
      rev := Noc.Mesh.core_of_index mesh p :: !rev;
      cur := p
    done;
    Some (Noc.Walk.of_cores (Array.of_list !rev), dist.(snk))
  end

(* Route one communication against the current loads (its own previous
   contribution already ripped out). Rectangle first; widen to the full
   mesh when the rectangle is cut, when the rectangle's best path still
   overloads some link, or when that path crosses a historied link —
   the last case is what lets the negotiation eventually push a
   communication {e out} of its congested rectangle: without it a path
   that fits once its own contribution is ripped would be re-chosen
   forever, however repulsive its links have become. The walk wins only
   when strictly cheaper under the negotiated cost (a cheaper walk is
   provably non-Manhattan, or the DP would have found it). *)
let search model sc loads history ~capacity (comm : Traffic.Communication.t) =
  let mesh = Noc.Load.mesh loads in
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.paths_scored <- m.Routing.Metrics.paths_scored + 1;
  match
    Routing.Repair.cheapest_manhattan loads comm
      ~cost:(link_cost sc loads history ~capacity ~rate:comm.rate)
  with
  | Some (path, cost) ->
      let settled = ref true in
      Noc.Path.iter_ids mesh path (fun id ->
          if
            history.(id) > 0.
            || not (link_fits model loads ~rate:comm.rate id)
          then settled := false);
      if !settled then Routing.Solution.route_single comm path
      else begin
        match widened_search sc loads history ~capacity comm with
        | Some (walk, wcost) when wcost < cost ->
            Routing.Solution.route_detour comm walk
        | _ -> Routing.Solution.route_single comm path
      end
  | None -> (
      match widened_search sc loads history ~capacity comm with
      | Some (walk, _) -> Routing.Solution.route_detour comm walk
      | None -> raise (Routing.Repair.No_route comm))

(* History grows on every link the report convicts, by one plus its
   effective overload factor — links that stay congested get ever more
   repulsive, the PathFinder negotiation. Returns the convicted-link
   mask. *)
let convict loads history ~capacity (rep : Routing.Evaluate.report) =
  let mesh = Noc.Load.mesh loads in
  List.iter
    (fun ((l : Noc.Mesh.link), _) ->
      let id = Noc.Mesh.link_id mesh l in
      let o = Noc.Load.overload loads ~capacity id in
      let o = if Float.is_finite o then o else 1. in
      history.(id) <- history.(id) +. 1. +. o)
    rep.overloaded;
  Routing.Evaluate.overload_mask mesh rep

type refinement = {
  routes : Routing.Solution.route array;
  feasible : bool;
  passes : int;
  rips : int;
}

(* Heaviest first, ties by input position: the order every pass
   (re)routes in. *)
let heaviest_first n rate =
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare (rate b) (rate a)) order;
  order

(* The rip-up-and-reroute loop of both entry points, from [passes]
   sweeps already run: read the report before each pass (never after a
   pass that reaches [iterations]), stop on a feasible read, otherwise
   convict and reroute [routes] in place, in [order]. Classic PathFinder
   discipline: rip up and reroute {e every} communication against the
   evolving loads — nets not crossing any convicted link also move,
   clearing the way for the ones that do (offenders-only ripping
   oscillates on hard instances). Only offenders count as rips. A
   reroute that finds nothing rolls back bit-exactly through the journal
   mark and keeps its old route: the candidate set may shrink to a
   usable state some other way (shedding); never escalate a refinement
   into a crash. Returns the sweeps run, the rips and whether a read
   found the state feasible. *)
let rip_up ~iterations ~history eng order routes passes =
  let loads = Routing.Delta.loads eng in
  let sc = Routing.Delta.scorer_of eng in
  let model = Routing.Delta.model eng in
  let mesh = Noc.Load.mesh loads in
  let capacity = model.Power.Model.capacity in
  let passes = ref passes and rips = ref 0 and feasible = ref false in
  while (not !feasible) && !passes < iterations do
    let rep = Routing.Delta.report eng in
    if rep.Routing.Evaluate.feasible then feasible := true
    else begin
      incr passes;
      bump_iterations ();
      let over = convict loads history ~capacity rep in
      Array.iter
        (fun i ->
          let r = routes.(i) in
          if Routing.Solution.route_crosses mesh over r then begin
            incr rips;
            bump_rips ()
          end;
          let m = Routing.Delta.mark eng in
          match
            Routing.Delta.remove_route eng r;
            let r' =
              search model sc loads history ~capacity r.Routing.Solution.comm
            in
            Routing.Delta.add_route eng r';
            r'
          with
          | r' ->
              Routing.Delta.commit eng m;
              routes.(i) <- r'
          | exception Routing.Repair.No_route _ -> Routing.Delta.rollback eng m)
        order
    end
  done;
  (!passes, !rips, !feasible)

(* Negotiation over an existing journal: rip up and reroute only the
   given routes (which the engine's loads must already contain), leaving
   every other contribution in place. The recovery engine's rung-3/4
   entry point — neighborhood passes hand in the routes crossing the
   faulted region, global passes hand in everything live. [history] is
   the caller's array so repulsion persists across calls (and across
   fault events). *)
let refine ?(iterations = default_iterations) ~history eng routes =
  if iterations < 0 then invalid_arg "Pathfinder.refine: iterations < 0";
  Routing.Metrics.with_span "pathfinder" @@ fun () ->
  let routes = Array.copy routes in
  let order =
    heaviest_first (Array.length routes) (fun i ->
        routes.(i).Routing.Solution.comm.Traffic.Communication.rate)
  in
  let passes, rips, feasible = rip_up ~iterations ~history eng order routes 0 in
  (* A loop stopped by its cap has not read the state its last pass
     left. *)
  let feasible =
    feasible || (Routing.Delta.report eng).Routing.Evaluate.feasible
  in
  { routes; feasible; passes; rips }

let negotiate ?(iterations = default_iterations) ?fault model mesh comms =
  if iterations < 1 then invalid_arg "Pathfinder.negotiate: iterations < 1";
  Routing.Metrics.with_span "pathfinder" @@ fun () ->
  let eng = Routing.Delta.create ?fault model mesh in
  let loads = Routing.Delta.loads eng in
  let sc = Routing.Delta.scorer_of eng in
  let capacity = model.Power.Model.capacity in
  let history = Array.make (Noc.Mesh.num_links mesh) 0. in
  let comms = Array.of_list comms in
  let order =
    heaviest_first (Array.length comms) (fun i ->
        comms.(i).Traffic.Communication.rate)
  in
  (* Initial pass: route everything once. *)
  bump_iterations ();
  let routes = Array.make (Array.length comms) None in
  Array.iter
    (fun i ->
      let r = search model sc loads history ~capacity comms.(i) in
      Routing.Delta.add_route eng r;
      routes.(i) <- Some r)
    order;
  let routes = Array.map Option.get routes in
  let passes, rips, _ = rip_up ~iterations ~history eng order routes 1 in
  (* Canonical rebuild in input order: the rip-up history's float
     cancellations never leak into the report. *)
  let final = Array.to_list routes in
  let solution = Routing.Solution.make mesh final in
  let report =
    Routing.Delta.report (Routing.Delta.of_routes ?fault model mesh final)
  in
  { solution; report; iterations = passes; rips }

type annotation = { a_iterations : int; a_rips : int; a_kept : bool }
type Routing.Heuristic.note += Negotiation of annotation

let engine ?iterations ?fault model mesh comms =
  if comms = [] then (Routing.Solution.make mesh [], None)
  else begin
    let pf = negotiate ?iterations ?fault model mesh comms in
    let base = Routing.Best.baseline ?fault model mesh comms in
    let keep_pf =
      Routing.Best.never_worse ?fault model ~base pf.solution pf.report
    in
    ( (if keep_pf then pf.solution else base.Routing.Best.solution),
      Some { a_iterations = pf.iterations; a_rips = pf.rips; a_kept = keep_pf }
    )
  end

let heuristic ?name ?iterations () =
  (match iterations with
  | Some i when i < 1 -> invalid_arg "Pathfinder.heuristic: iterations < 1"
  | _ -> ());
  let name = match name with Some n -> n | None -> "PF" in
  Routing.Heuristic.of_noted ~name
    ~description:
      (Printf.sprintf
         "negotiated congestion: PathFinder rip-up-and-reroute over the \
          delta journal, <= %d iterations"
         (Option.value ~default:default_iterations iterations))
    (fun ?fault model mesh comms ->
      let solution, a = engine ?iterations ?fault model mesh comms in
      (solution, Option.map (fun a -> Negotiation a) a))

let find name =
  Option.map
    (fun iterations ->
      heuristic ~name:(Printf.sprintf "PF%d" iterations) ~iterations ())
    (Routing.Heuristic.parse_family ~prefix:"pf" ~default:default_iterations
       ~min:1 name)
