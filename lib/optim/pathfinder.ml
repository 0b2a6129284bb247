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

(* Cheapest surviving Manhattan path of the bounding rectangle under the
   negotiated cost — the rectangle search of {!Routing.Repair.local_route}
   with the congestion-shaped objective. [None] when a fault cut every
   rectangle path. *)
let manhattan_search sc loads history ~capacity (comm : Traffic.Communication.t)
    =
  let mesh = Noc.Load.mesh loads in
  let rate = comm.rate in
  let rect = Noc.Rect.make ~src:comm.src ~snk:comm.snk in
  let n = Noc.Rect.length rect in
  let best : (Noc.Coord.t, float * Noc.Coord.t option) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.replace best comm.snk (0., None);
  for k = n - 1 downto 0 do
    List.iter
      (fun core ->
        let pick =
          List.fold_left
            (fun acc (l : Noc.Mesh.link) ->
              if not (Noc.Load.usable_link loads l) then acc
              else
                match Hashtbl.find_opt best l.dst with
                | None -> acc
                | Some (tail, _) ->
                    let id = Noc.Mesh.link_id mesh l in
                    let cost =
                      tail +. link_cost sc loads history ~capacity ~rate id
                    in
                    (match acc with
                    | Some (c, _) when c <= cost -> acc
                    | _ -> Some (cost, l.dst)))
            None
            (Noc.Rect.out_links rect core)
        in
        match pick with
        | None -> ()
        | Some (cost, next) -> Hashtbl.replace best core (cost, Some next))
      (Noc.Rect.cores_on_step rect k)
  done;
  match Hashtbl.find_opt best comm.src with
  | None -> None
  | Some (cost, _) ->
      let cores = Array.make (n + 1) comm.src in
      let cur = ref comm.src in
      for i = 1 to n do
        (match Hashtbl.find best !cur with
        | _, Some next -> cur := next
        | _, None -> assert false);
        cores.(i) <- !cur
      done;
      Some (Noc.Path.of_cores cores, cost)

(* Cheapest surviving walk over the whole mesh (Dijkstra on the directed
   links, negotiated cost): the widening step when the rectangle is cut
   or congested. Ties break by fewer hops, then by the smallest core
   index and the {!Noc.Mesh.neighbors} enumeration order — fully
   deterministic, like the BFS detours of {!Routing.Repair}. *)
let widened_search sc loads history ~capacity (comm : Traffic.Communication.t)
    =
  let mesh = Noc.Load.mesh loads in
  let rate = comm.rate in
  let cols = Noc.Mesh.cols mesh in
  let idx (c : Noc.Coord.t) = ((c.row - 1) * cols) + (c.col - 1) in
  let n = Noc.Mesh.num_cores mesh in
  let coord_of = Array.make n comm.src in
  for row = 1 to Noc.Mesh.rows mesh do
    for col = 1 to cols do
      let c = Noc.Coord.make ~row ~col in
      coord_of.(idx c) <- c
    done
  done;
  let dist = Array.make n infinity in
  let hops = Array.make n max_int in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let src = idx comm.src and snk = idx comm.snk in
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
       if !u < 0 || !u = snk then raise Exit;
       visited.(!u) <- true;
       let cu = coord_of.(!u) in
       List.iter
         (fun nb ->
           let l = Noc.Mesh.link ~src:cu ~dst:nb in
           if Noc.Load.usable_link loads l then begin
             let id = Noc.Mesh.link_id mesh l in
             let c =
               dist.(!u) +. link_cost sc loads history ~capacity ~rate id
             in
             let h = hops.(!u) + 1 in
             let v = idx nb in
             if
               (not visited.(v))
               && (c < dist.(v) || (c = dist.(v) && h < hops.(v)))
             then begin
               dist.(v) <- c;
               hops.(v) <- h;
               parent.(v) <- !u
             end
           end)
         (Noc.Mesh.neighbors mesh cu)
     done
   with Exit -> ());
  if dist.(snk) = infinity then None
  else begin
    let rev = ref [ comm.snk ] in
    let cur = ref snk in
    while !cur <> src do
      let p = parent.(!cur) in
      rev := coord_of.(p) :: !rev;
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
  match manhattan_search sc loads history ~capacity comm with
  | Some (path, cost) ->
      let settled = ref true in
      Noc.Path.iter_links path (fun l ->
          let id = Noc.Mesh.link_id mesh l in
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

(* Negotiation over an existing journal: rip up and reroute only the
   given routes (which the engine's loads must already contain), leaving
   every other contribution in place. The recovery engine's rung-3/4
   entry point — neighborhood passes hand in the routes crossing the
   faulted region, global passes hand in everything live. [history] is
   the caller's array so repulsion persists across calls (and across
   fault events). *)
let refine ?(iterations = default_iterations) ~history eng routes =
  if iterations < 0 then invalid_arg "Pathfinder.refine: iterations < 0";
  let loads = Routing.Delta.loads eng in
  let sc = Routing.Delta.scorer_of eng in
  let model = Routing.Delta.model eng in
  let mesh = Noc.Load.mesh loads in
  let capacity = model.Power.Model.capacity in
  let n = Array.length routes in
  let routes = Array.copy routes in
  (* Heaviest first, ties by input position — same discipline as
     {!negotiate}. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      Float.compare
        routes.(b).Routing.Solution.comm.Traffic.Communication.rate
        routes.(a).Routing.Solution.comm.Traffic.Communication.rate)
    order;
  let passes = ref 0 and rips = ref 0 in
  let rep = ref (Routing.Delta.report eng) in
  while (not !rep.Routing.Evaluate.feasible) && !passes < iterations do
    incr passes;
    bump_iterations ();
    let over = convict loads history ~capacity !rep in
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
        | exception Routing.Repair.No_route _ ->
            (* Keep the old route: the candidate set may shrink to a
               usable state some other way (shedding); never escalate a
               refinement into a crash. *)
            Routing.Delta.rollback eng m)
      order;
    rep := Routing.Delta.report eng
  done;
  {
    routes;
    feasible = !rep.Routing.Evaluate.feasible;
    passes = !passes;
    rips = !rips;
  }

let negotiate ?(iterations = default_iterations) ?fault model mesh comms =
  if iterations < 1 then invalid_arg "Pathfinder.negotiate: iterations < 1";
  Routing.Metrics.with_span "pathfinder" @@ fun () ->
  let eng = Routing.Delta.create ?fault model mesh in
  let loads = Routing.Delta.loads eng in
  let sc = Routing.Delta.scorer_of eng in
  let capacity = model.Power.Model.capacity in
  let history = Array.make (Noc.Mesh.num_links mesh) 0. in
  let comms_arr = Array.of_list comms in
  let n = Array.length comms_arr in
  (* Heaviest first, ties by input position: the order every pass
     processes (re)routes in. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      Float.compare comms_arr.(b).Traffic.Communication.rate
        comms_arr.(a).Traffic.Communication.rate)
    order;
  let routes = Array.make n None in
  let search_apply i =
    let comm = comms_arr.(i) in
    let r = search model sc loads history ~capacity comm in
    Routing.Delta.add_route eng r;
    routes.(i) <- Some r
  in
  (* Initial pass: route everything once. *)
  bump_iterations ();
  Array.iter search_apply order;
  let passes = ref 1 in
  let rips = ref 0 in
  let continue = ref true in
  while !continue && !passes < iterations do
    let rep = Routing.Delta.report eng in
    if rep.Routing.Evaluate.feasible then continue := false
    else begin
      incr passes;
      bump_iterations ();
      let over = convict loads history ~capacity rep in
      (* Classic PathFinder discipline: rip up and reroute {e every}
         communication against the evolving loads, heaviest first —
         nets not crossing any convicted link also move, clearing the
         way for the ones that do (offenders-only ripping oscillates
         on hard instances). Only offenders count as rips. The journal
         mark makes a failed reroute (disconnection) restore the state
         bit-exactly before the exception escapes. *)
      Array.iter
        (fun i ->
          match routes.(i) with
          | Some r ->
              if Routing.Solution.route_crosses mesh over r then begin
                incr rips;
                bump_rips ()
              end;
              let m = Routing.Delta.mark eng in
              (try
                 Routing.Delta.remove_route eng r;
                 search_apply i;
                 Routing.Delta.commit eng m
               with e ->
                 Routing.Delta.rollback eng m;
                 raise e)
          | None -> ())
        order
    end
  done;
  (* Canonical rebuild: re-accumulate the final routes in input order,
     exactly as {!Routing.Solution.loads} would, so the incremental
     report below is the very report a from-scratch
     [Evaluate.of_loads] computes on this solution — the rip-up
     history's float cancellations never leak into the result. *)
  let final =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* all routed *))
         routes)
  in
  let solution = Routing.Solution.make mesh final in
  let canonical = Routing.Delta.create ?fault model mesh in
  List.iter (Routing.Delta.add_route canonical) final;
  let report = Routing.Delta.report canonical in
  { solution; report; iterations = !passes; rips = !rips }

type annotation = { a_iterations : int; a_rips : int; a_kept : bool }
type Routing.Heuristic.note += Negotiation of annotation

let engine ?iterations ?fault model mesh comms =
  if comms = [] then (Routing.Solution.make mesh [], None)
  else begin
    let pf = negotiate ?iterations ?fault model mesh comms in
    let base = Routing.Best.baseline ?fault model mesh comms in
    (* Never worse than the best single-path heuristic: feasible-first,
       then total power, penalized power when both fail. *)
    let base_report = base.Routing.Best.report in
    let keep_pf =
      match
        (pf.report.Routing.Evaluate.feasible,
         base_report.Routing.Evaluate.feasible)
      with
      | true, false -> true
      | false, true -> false
      | true, true ->
          pf.report.Routing.Evaluate.total_power
          <= base_report.Routing.Evaluate.total_power
      | false, false ->
          Routing.Best.penalized ?fault model pf.solution
          <= Routing.Best.penalized ?fault model base.Routing.Best.solution
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
