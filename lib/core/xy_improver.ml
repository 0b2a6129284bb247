let divert path k =
  if k < 0 || k >= Noc.Path.length path then None
  else
    let cores = Noc.Path.cores path in
    let n = Array.length cores in
    let src = cores.(k) and dst = cores.(k + 1) in
    let d = Noc.Path.quadrant path in
    let rs = Noc.Quadrant.row_step d and cstep = Noc.Quadrant.col_step d in
    if path.Noc.Path.moves.(k) = Noc.Path.H then begin
      (* Leave src vertically; rejoin the old path right after its next
         vertical hop. Impossible if the path never descends again. *)
      let u = src.Noc.Coord.row in
      let rec next_vertical j =
        if j >= n - 1 then None
        else if cores.(j + 1).Noc.Coord.row <> u then Some j
        else next_vertical (j + 1)
      in
      match next_vertical (k + 1) with
      | None -> None
      | Some j ->
          let prefix = Array.sub cores 0 (k + 1) in
          let vj = cores.(j + 1).Noc.Coord.col in
          let detour_len = abs (vj - src.Noc.Coord.col) + 1 in
          let detour =
            Array.init detour_len (fun i ->
                Noc.Coord.make ~row:(u + rs)
                  ~col:(src.Noc.Coord.col + (i * cstep)))
          in
          let suffix =
            if j + 2 <= n - 1 then Array.sub cores (j + 2) (n - j - 2)
            else [||]
          in
          Some (Noc.Path.of_cores (Array.concat [ prefix; detour; suffix ]))
    end
    else begin
      (* Enter dst horizontally: descend one column earlier, starting at
         the row where the old path entered this column. Impossible if the
         source already sits on that column. *)
      let v = src.Noc.Coord.col in
      if (Noc.Path.src path).Noc.Coord.col = v then None
      else begin
        let rec entry j =
          if cores.(j).Noc.Coord.col = v then j else entry (j + 1)
        in
        let j = entry 0 in
        let prefix = Array.sub cores 0 j in
        let r0 = cores.(j).Noc.Coord.row and rb = dst.Noc.Coord.row in
        (* The prefix already ends at (r0, v - cstep): descend from the
           next row down to rb, still one column early. *)
        let detour_len = abs (rb - r0) in
        let detour =
          Array.init detour_len (fun i ->
              Noc.Coord.make ~row:(r0 + ((i + 1) * rs)) ~col:(v - cstep))
        in
        let suffix = Array.sub cores (k + 1) (n - k - 1) in
        Some (Noc.Path.of_cores (Array.concat [ prefix; detour; suffix ]))
      end
    end

let move_delta sc loads rate old_p new_p =
  let mesh = Noc.Load.mesh loads in
  let changes = Hashtbl.create 32 in
  let bump sign id =
    let d = try Hashtbl.find changes id with Not_found -> 0. in
    Hashtbl.replace changes id (d +. (sign *. rate))
  in
  Noc.Path.iter_ids mesh old_p (bump (-1.));
  Noc.Path.iter_ids mesh new_p (bump 1.);
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
   [loads]. Each path's link ids are cached, so the hot link's hop on a
   path is one scan ([-1] on a path that does not cross it, where
   [divert] offers nothing). *)
let improve_in_place mesh model ~max_moves comms paths loads =
  let sc = Delta.scorer model loads in
  let dead = Array.make (Noc.Mesh.num_links mesh) false in
  let crossing = Array.map (Noc.Path.ids mesh) paths in
  let hop i id =
    let ids : int array = crossing.(i) in
    let rec go k =
      if k >= Array.length ids then -1
      else if ids.(k) = id then k
      else go (k + 1)
    in
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
          let best = ref None in
          Array.iteri
            (fun i p ->
              match divert p (hop i id) with
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
              crossing.(i) <- Noc.Path.ids mesh np;
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
