(* Post-pass that makes any solution usable under a fault scenario.

   Routes whose every link survives are kept verbatim. A route crossing a
   dead link is re-routed: first by the cheapest surviving Manhattan path of
   its bounding rectangle ({!Noc.Rect.cheapest}, costed by the marginal
   capped penalized power against the loads accumulated so far), and if
   the fault cut every Manhattan path, by a shortest detour walk (BFS over
   the surviving directed links). Routes are processed in solution order
   with running loads, so the result is deterministic. *)

exception No_route of Traffic.Communication.t

let route_usable fault (r : Solution.route) =
  List.for_all (fun (p, _) -> Noc.Fault.path_usable fault p) r.paths
  && List.for_all (fun (w, _) -> Noc.Fault.walk_usable fault w) r.detours

(* Cheapest surviving Manhattan path, or None when the rectangle is cut.
   Marginal link costs go through the delta engine's memoized table; the
   loads carry the fault, so the scorer's capacity factors are exactly
   [Noc.Fault.factor fault id]. *)
let manhattan_usable_sc fault sc (comm : Traffic.Communication.t) =
  let loads = Delta.scorer_loads sc in
  let d =
    Noc.Rect.compile (Noc.Load.mesh loads) (Traffic.Communication.rect comm)
  in
  let marginal s =
    let id = d.ids.(s) in
    let before = Noc.Load.get loads id in
    Delta.cost sc id (before +. comm.rate) -. Delta.cost sc id before
  in
  Option.map
    (fun (slots, _) -> Noc.Rect.path d slots)
    (Noc.Rect.cheapest d
       ~usable:(fun s -> Noc.Fault.usable_id fault d.ids.(s))
       ~cost:marginal)

(* Shortest surviving walk by BFS over the directed links; deterministic
   given the [Mesh.neighbors] enumeration order. *)
let detour fault mesh ~src ~snk =
  let cols = Noc.Mesh.cols mesh in
  let idx (c : Noc.Coord.t) = ((c.row - 1) * cols) + (c.col - 1) in
  let parent = Array.make (Noc.Mesh.num_cores mesh) None in
  let seen = Array.make (Noc.Mesh.num_cores mesh) false in
  seen.(idx src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let c = Queue.pop q in
    if Noc.Coord.equal c snk then found := true
    else
      List.iter
        (fun nb ->
          if
            (not seen.(idx nb))
            && Noc.Fault.usable fault (Noc.Mesh.link ~src:c ~dst:nb)
          then begin
            seen.(idx nb) <- true;
            parent.(idx nb) <- Some c;
            Queue.add nb q
          end)
        (Noc.Mesh.neighbors mesh c)
  done;
  if not !found then None
  else begin
    let rev = ref [ snk ] in
    let cur = ref snk in
    while not (Noc.Coord.equal !cur src) do
      match parent.(idx !cur) with
      | Some p ->
          rev := p :: !rev;
          cur := p
      | None -> assert false
    done;
    Some (Noc.Walk.of_cores (Array.of_list !rev))
  end

let local_route fault sc (comm : Traffic.Communication.t) =
  let m = Metrics.current () in
  m.Metrics.detour_searches <- m.Metrics.detour_searches + 1;
  match manhattan_usable_sc fault sc comm with
  | Some p -> Some (Solution.route_single comm p)
  | None ->
      let mesh = Noc.Load.mesh (Delta.scorer_loads sc) in
      Option.map
        (Solution.route_detour comm)
        (detour fault mesh ~src:comm.src ~snk:comm.snk)

let add_route loads (r : Solution.route) =
  List.iter (fun (p, share) -> Noc.Load.add_path loads p share) r.paths;
  List.iter (fun (w, share) -> Noc.Load.add_walk loads w share) r.detours

let reroute fault sc (comm : Traffic.Communication.t) =
  match local_route fault sc comm with
  | Some r ->
      add_route (Delta.scorer_loads sc) r;
      r
  | None -> raise (No_route comm)

let solution fault model s =
  if Noc.Fault.is_trivial fault then s
  else begin
    let mesh = Solution.mesh s in
    let loads = Noc.Load.create ~fault mesh in
    let sc = Delta.scorer model loads in
    let routes =
      List.map
        (fun (r : Solution.route) ->
          if route_usable fault r then begin
            add_route loads r;
            r
          end
          else reroute fault sc r.comm)
        (Solution.routes s)
    in
    Solution.make mesh routes
  end
