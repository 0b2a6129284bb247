(* Post-pass that makes any solution usable under a fault scenario.

   Routes whose every link survives are kept verbatim. A route crossing a
   dead link is re-routed: first by the cheapest surviving Manhattan path of
   its bounding rectangle (a backward DP over the rectangle's diagonal
   steps, costed by the marginal capped penalized power against the loads
   accumulated so far), and if the fault cut every Manhattan path, by a
   shortest detour walk (BFS over the surviving directed links). Routes are
   processed in solution order with running loads, so the result is
   deterministic. *)

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
  let mesh = Noc.Load.mesh loads in
  let rate = comm.rate in
  let rect = Noc.Rect.make ~src:comm.src ~snk:comm.snk in
  let n = Noc.Rect.length rect in
  (* best : core -> (cost-to-sink, next core on the best path) *)
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
              if not (Noc.Fault.usable fault l) then acc
              else
                match Hashtbl.find_opt best l.dst with
                | None -> acc
                | Some (tail, _) ->
                    let id = Noc.Mesh.link_id mesh l in
                    let before = Noc.Load.get loads id in
                    let marginal =
                      Delta.cost sc id (before +. rate)
                      -. Delta.cost sc id before
                    in
                    let cost = tail +. marginal in
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
  if not (Hashtbl.mem best comm.src) then None
  else begin
    let cores = Array.make (n + 1) comm.src in
    let cur = ref comm.src in
    for i = 1 to n do
      (match Hashtbl.find best !cur with
      | _, Some next -> cur := next
      | _, None -> assert false);
      cores.(i) <- !cur
    done;
    Some (Noc.Path.of_cores cores)
  end

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
