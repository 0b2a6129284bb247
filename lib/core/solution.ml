type route = {
  comm : Traffic.Communication.t;
  paths : (Noc.Path.t * float) list;
  detours : (Noc.Walk.t * float) list;
}

type t = { mesh : Noc.Mesh.t; routes : route list }

let check_endpoints comm path =
  if
    not
      (Noc.Coord.equal (Noc.Path.src path) comm.Traffic.Communication.src
      && Noc.Coord.equal (Noc.Path.snk path) comm.Traffic.Communication.snk)
  then
    invalid_arg
      (Format.asprintf "Solution: path %a does not join %a" Noc.Path.pp path
         Traffic.Communication.pp comm)

let check_walk_endpoints comm walk =
  if
    not
      (Noc.Coord.equal (Noc.Walk.src walk) comm.Traffic.Communication.src
      && Noc.Coord.equal (Noc.Walk.snk walk) comm.Traffic.Communication.snk)
  then
    invalid_arg
      (Format.asprintf "Solution: walk %a does not join %a" Noc.Walk.pp walk
         Traffic.Communication.pp comm)

let route_single comm path =
  check_endpoints comm path;
  { comm; paths = [ (path, comm.Traffic.Communication.rate) ]; detours = [] }

let route_detour comm walk =
  check_walk_endpoints comm walk;
  { comm; paths = []; detours = [ (walk, comm.Traffic.Communication.rate) ] }

let check_shares ~who comm paths detours =
  if paths = [] && detours = [] then invalid_arg (who ^ ": no part");
  List.iter
    (fun (p, share) ->
      check_endpoints comm p;
      if share <= 0. then invalid_arg (who ^ ": share <= 0"))
    paths;
  List.iter
    (fun (w, share) ->
      check_walk_endpoints comm w;
      if share <= 0. then invalid_arg (who ^ ": share <= 0"))
    detours;
  let total =
    List.fold_left
      (fun s (_, x) -> s +. x)
      (List.fold_left (fun s (_, x) -> s +. x) 0. paths)
      detours
  in
  let rate = comm.Traffic.Communication.rate in
  if Float.abs (total -. rate) > 1e-6 *. Float.max 1. rate then
    invalid_arg
      (Printf.sprintf "%s: shares sum to %g, rate is %g" who total rate)

let route_multi comm paths =
  check_shares ~who:"Solution.route_multi" comm paths [];
  { comm; paths; detours = [] }

let route_parts comm ~paths ~detours =
  check_shares ~who:"Solution.route_parts" comm paths detours;
  { comm; paths; detours }

let check_cores mesh cores =
  Array.iter
    (fun c ->
      if not (Noc.Mesh.in_mesh mesh c) then
        invalid_arg
          (Format.asprintf "Solution.make: core %a outside %a" Noc.Coord.pp c
             Noc.Mesh.pp mesh))
    cores

let make mesh routes =
  List.iter
    (fun r ->
      List.iter (fun (p, _) -> check_cores mesh (Noc.Path.cores p)) r.paths;
      List.iter
        (fun (w, _) -> check_cores mesh (Noc.Walk.cores w))
        r.detours)
    routes;
  { mesh; routes }

let mesh t = t.mesh
let routes t = t.routes

let num_paths t =
  List.fold_left
    (fun n r -> n + List.length r.paths + List.length r.detours)
    0 t.routes

let max_paths_per_comm t =
  List.fold_left
    (fun m r -> max m (List.length r.paths + List.length r.detours))
    0 t.routes

let detour_hops t =
  List.fold_left
    (fun n r ->
      List.fold_left (fun n (w, _) -> n + Noc.Walk.detour_hops w) n r.detours)
    0 t.routes

let loads ?fault t =
  let loads = Noc.Load.create ?fault t.mesh in
  List.iter
    (fun r ->
      List.iter (fun (p, share) -> Noc.Load.add_path loads p share) r.paths;
      List.iter (fun (w, share) -> Noc.Load.add_walk loads w share) r.detours)
    t.routes;
  loads

let iter_route_ids mesh r f =
  List.iter (fun (p, _) -> Noc.Path.iter_ids mesh p f) r.paths;
  List.iter (fun (w, _) -> Noc.Walk.iter_ids mesh w f) r.detours

let route_crosses mesh mask r =
  let hit = ref false in
  iter_route_ids mesh r (fun id -> if mask.(id) then hit := true);
  !hit

let path_of t comm =
  List.find_map
    (fun r ->
      if Traffic.Communication.equal r.comm comm then
        match (r.paths, r.detours) with [ (p, _) ], [] -> Some p | _ -> None
      else None)
    t.routes

let pp ppf t =
  Format.fprintf ppf "@[<v>solution on %a:@," Noc.Mesh.pp t.mesh;
  List.iter
    (fun r ->
      Format.fprintf ppf "  %a:@," Traffic.Communication.pp r.comm;
      List.iter
        (fun (p, share) ->
          Format.fprintf ppf "    %g via %a@," share Noc.Path.pp p)
        r.paths;
      List.iter
        (fun (w, share) ->
          Format.fprintf ppf "    %g via detour(+%d) %a@," share
            (Noc.Walk.detour_hops w) Noc.Walk.pp w)
        r.detours)
    t.routes;
  Format.fprintf ppf "@]"
