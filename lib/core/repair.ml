(* Post-pass that makes any solution usable under a fault scenario.

   Routes whose every link survives are kept verbatim. A route crossing a
   dead link is re-routed: first by the cheapest surviving Manhattan path of
   its bounding rectangle ({!Noc.Rect.cheapest}, costed by the marginal
   capped penalized power against the loads accumulated so far), and if
   the fault cut every Manhattan path, by a shortest detour walk (BFS over
   the surviving directed links). Routes are processed in solution order
   with running loads, so the result is deterministic. Both searches read
   which links survive from the loads, which carry the fault. *)

exception No_route of Traffic.Communication.t

let route_usable fault (r : Solution.route) =
  List.for_all (fun (p, _) -> Noc.Fault.path_usable fault p) r.paths
  && List.for_all (fun (w, _) -> Noc.Fault.walk_usable fault w) r.detours

let cheapest_manhattan loads (comm : Traffic.Communication.t) ~cost =
  let d =
    Noc.Rect.compile (Noc.Load.mesh loads) (Traffic.Communication.rect comm)
  in
  Option.map
    (fun (slots, c) -> (Noc.Rect.path d slots, c))
    (Noc.Rect.cheapest d
       ~usable:(fun s -> Noc.Load.usable loads d.ids.(s))
       ~cost:(fun s -> cost d.ids.(s)))

let detour loads ~src ~snk =
  let mesh = Noc.Load.mesh loads in
  let parent = Noc.Mesh.reach mesh ~usable:(Noc.Load.usable loads) ~src in
  let s = Noc.Mesh.core_index mesh src in
  let rec back i acc =
    if i = s then acc
    else back parent.(i) (Noc.Mesh.core_of_index mesh parent.(i) :: acc)
  in
  let k = Noc.Mesh.core_index mesh snk in
  if parent.(k) < 0 then None
  else Some (Noc.Walk.of_cores (Array.of_list (back k [ snk ])))

(* Marginal link costs go through the delta engine's memoized table. *)
let local_route sc (comm : Traffic.Communication.t) =
  let m = Metrics.current () in
  m.Metrics.detour_searches <- m.Metrics.detour_searches + 1;
  let loads = Delta.scorer_loads sc in
  let marginal id =
    let before = Noc.Load.get loads id in
    Delta.cost sc id (before +. comm.rate) -. Delta.cost sc id before
  in
  match cheapest_manhattan loads comm ~cost:marginal with
  | Some (p, _) -> Some (Solution.route_single comm p)
  | None ->
      Option.map
        (Solution.route_detour comm)
        (detour loads ~src:comm.src ~snk:comm.snk)

let add_route loads (r : Solution.route) =
  List.iter (fun (p, share) -> Noc.Load.add_path loads p share) r.paths;
  List.iter (fun (w, share) -> Noc.Load.add_walk loads w share) r.detours

let reroute sc (comm : Traffic.Communication.t) =
  match local_route sc comm with
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
          else reroute sc r.comm)
        (Solution.routes s)
    in
    Solution.make mesh routes
  end
