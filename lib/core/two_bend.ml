(* Added penalized cost of routing [rate] over the candidate, scored
   through the delta engine's memoized cost table. *)
let added_cost sc loads rate path =
  let acc = ref 0. in
  Noc.Path.iter_ids (Noc.Load.mesh loads) path (fun id ->
      let before = Noc.Load.get loads id in
      acc :=
        !acc +. Delta.cost sc id (before +. rate) -. Delta.cost sc id before);
  !acc

let best_candidate sc loads (comm : Traffic.Communication.t) =
  let candidates = Noc.Path.two_bend_all ~src:comm.src ~snk:comm.snk in
  match candidates with
  | [] -> assert false
  | first :: rest ->
      let m = Metrics.current () in
      m.Metrics.paths_scored <- m.Metrics.paths_scored + List.length candidates;
      let cost = added_cost sc loads comm.rate in
      let best, _ =
        List.fold_left
          (fun (bp, bc) p ->
            let c = cost p in
            if c < bc then (p, c) else (bp, bc))
          (first, cost first) rest
      in
      best

let route ?(order = Traffic.Communication.By_rate_desc) ?fault mesh model
    comms =
  let loads = Noc.Load.create ?fault mesh in
  let sc = Delta.scorer model loads in
  let routes =
    List.map
      (fun comm ->
        let path = best_candidate sc loads comm in
        Noc.Load.add_path loads path comm.Traffic.Communication.rate;
        Solution.route_single comm path)
      (Traffic.Communication.sort order comms)
  in
  Solution.make mesh routes
