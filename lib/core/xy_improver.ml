let find_link cores (l : Noc.Mesh.link) =
  let n = Array.length cores in
  let rec go i =
    if i >= n - 1 then None
    else if Noc.Coord.equal cores.(i) l.src && Noc.Coord.equal cores.(i + 1) l.dst
    then Some i
    else go (i + 1)
  in
  go 0

let divert path (l : Noc.Mesh.link) =
  let cores = Noc.Path.cores path in
  match find_link cores l with
  | None -> None
  | Some idx ->
      let d = Noc.Path.quadrant path in
      let rs = Noc.Quadrant.row_step d and cstep = Noc.Quadrant.col_step d in
      let n = Array.length cores in
      if Noc.Mesh.is_horizontal l then begin
        (* Leave l.src vertically; rejoin the old path right after its next
           vertical hop. Impossible if the path never descends again. *)
        let u = l.src.Noc.Coord.row in
        let rec next_vertical k =
          if k >= n - 1 then None
          else if cores.(k + 1).Noc.Coord.row <> u then Some k
          else next_vertical (k + 1)
        in
        match next_vertical (idx + 1) with
        | None -> None
        | Some k ->
            let prefix = Array.sub cores 0 (idx + 1) in
            let a = cores.(idx) in
            let vk = cores.(k + 1).Noc.Coord.col in
            let detour_len = abs (vk - a.Noc.Coord.col) + 1 in
            let detour =
              Array.init detour_len (fun i ->
                  Noc.Coord.make ~row:(u + rs)
                    ~col:(a.Noc.Coord.col + (i * cstep)))
            in
            let suffix =
              if k + 2 <= n - 1 then Array.sub cores (k + 2) (n - k - 2)
              else [||]
            in
            Some (Noc.Path.of_cores (Array.concat [ prefix; detour; suffix ]))
      end
      else begin
        (* Enter l.dst horizontally: descend one column earlier, starting at
           the row where the old path entered this column. Impossible if the
           source already sits on that column. *)
        let v = l.src.Noc.Coord.col in
        if (Noc.Path.src path).Noc.Coord.col = v then None
        else begin
          let rec entry j =
            if cores.(j).Noc.Coord.col = v then j else entry (j + 1)
          in
          let j = entry 0 in
          let prefix = Array.sub cores 0 j in
          let r0 = cores.(j).Noc.Coord.row
          and rb = l.dst.Noc.Coord.row in
          (* The prefix already ends at (r0, v - cstep): descend from the
             next row down to rb, still one column early. *)
          let detour_len = abs (rb - r0) in
          let detour =
            Array.init detour_len (fun i ->
                Noc.Coord.make ~row:(r0 + ((i + 1) * rs)) ~col:(v - cstep))
          in
          let suffix = Array.sub cores (idx + 1) (n - idx - 1) in
          Some (Noc.Path.of_cores (Array.concat [ prefix; detour; suffix ]))
        end
      end

(* Penalized-cost change of replacing [old_p] by [new_p] for [rate] units,
   without mutating the loads. Only links whose load changes contribute;
   each contribution is scored through the delta engine's memoized cost
   table. *)
let move_delta sc loads rate old_p new_p =
  let mesh = Noc.Load.mesh loads in
  let changes = Hashtbl.create 32 in
  let bump sign l =
    let id = Noc.Mesh.link_id mesh l in
    let d = try Hashtbl.find changes id with Not_found -> 0. in
    Hashtbl.replace changes id (d +. (sign *. rate))
  in
  Noc.Path.iter_links old_p (bump (-1.));
  Noc.Path.iter_links new_p (bump 1.);
  Hashtbl.fold
    (fun id d acc ->
      if Float.abs d < 1e-12 then acc
      else
        let before = Noc.Load.get loads id in
        acc +. Delta.cost sc id (before +. d) -. Delta.cost sc id before)
    changes 0.

(* Local-search core shared by [route] (XY start) and [improve] (arbitrary
   single-path start): divert communications off the hottest links while it
   pays, with the link list pruned as in the paper. Mutates [paths] and
   [loads]. Each path's link ids are cached so that only the paths crossing
   the hot link are offered a diversion ([divert] returns [None] on the
   others). *)
let improve_in_place mesh model ~max_moves comms paths loads =
  let sc = Delta.scorer model loads in
  let dead = Array.make (Noc.Mesh.num_links mesh) false in
  let link_ids p = Array.map (Noc.Mesh.link_id mesh) (Noc.Path.links p) in
  let crossing = Array.map link_ids paths in
  let crosses i id =
    let ids : int array = crossing.(i) in
    let rec go k = k < Array.length ids && (ids.(k) = id || go (k + 1)) in
    go 0
  in
  let moves = ref 0 in
  let rec improve () =
    if !moves >= max_moves then ()
    else
      match
        Noc.Load.hottest loads (fun id ->
            Noc.Load.get loads id > 0. && not dead.(id))
      with
      | None -> ()
      | Some id ->
          let link = Noc.Mesh.link_of_id mesh id in
          let best = ref None in
          Array.iteri
            (fun i p ->
              if crosses i id then
                match divert p link with
                | None -> ()
                | Some np ->
                    let m = Metrics.current () in
                    m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
                    let rate = comms.(i).Traffic.Communication.rate in
                    let delta = move_delta sc loads rate p np in
                    let better =
                      match !best with
                      | None -> delta < -1e-9
                      | Some (_, _, bd) -> delta < bd
                    in
                    if better then best := Some (i, np, delta))
            paths;
          (match !best with
          | Some (i, np, _) ->
              (* The paper keeps the pruned link list across improvements:
                 only the order is refreshed, removed links stay removed. *)
              let rate = comms.(i).Traffic.Communication.rate in
              Noc.Load.remove_path loads paths.(i) rate;
              Noc.Load.add_path loads np rate;
              paths.(i) <- np;
              crossing.(i) <- link_ids np;
              incr moves
          | None -> dead.(id) <- true);
          improve ()
  in
  improve ()

let route ?(order = Traffic.Communication.By_rate_desc) ?max_moves ?fault
    mesh model comms =
  let comms = Array.of_list (Traffic.Communication.sort order comms) in
  let nc = Array.length comms in
  let max_moves =
    match max_moves with
    | Some m -> m
    | None -> nc * Noc.Mesh.rows mesh * Noc.Mesh.cols mesh
  in
  let paths =
    Array.map
      (fun (c : Traffic.Communication.t) -> Noc.Path.xy ~src:c.src ~snk:c.snk)
      comms
  in
  let loads = Noc.Load.create ?fault mesh in
  Array.iteri
    (fun i p -> Noc.Load.add_path loads p comms.(i).Traffic.Communication.rate)
    paths;
  improve_in_place mesh model ~max_moves comms paths loads;
  Solution.make mesh
    (Array.to_list (Array.map2 Solution.route_single comms paths))

let improve ?max_moves ?fault model solution =
  let mesh = Solution.mesh solution in
  let routes = Solution.routes solution in
  let comms =
    Array.of_list (List.map (fun (r : Solution.route) -> r.comm) routes)
  in
  let paths =
    Array.of_list
      (List.map
         (fun (r : Solution.route) ->
           match r.paths with
           | [ (p, _) ] -> p
           | _ ->
               invalid_arg
                 "Xy_improver.improve: single-path solutions only")
         routes)
  in
  let nc = Array.length comms in
  let max_moves =
    match max_moves with
    | Some m -> m
    | None -> nc * Noc.Mesh.rows mesh * Noc.Mesh.cols mesh
  in
  let loads = Solution.loads ?fault solution in
  improve_in_place mesh model ~max_moves comms paths loads;
  Solution.make mesh
    (Array.to_list (Array.map2 Solution.route_single comms paths))
