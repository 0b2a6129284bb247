(* Tie-break: distance of a core to the straight segment src-snk, measured
   by the (absolute) cross product of (core - src) with (snk - src), read
   off the core's offset in the rectangle. *)
let diagonal_deviation (r : Noc.Rect.t) o =
  let w = r.dcol + 1 in
  abs (((o / w) * r.dcol) - ((o mod w) * r.drow))

let build_path loads (comm : Traffic.Communication.t) =
  let d =
    Noc.Rect.compile (Noc.Load.mesh loads) (Traffic.Communication.rect comm)
  in
  (* Planned effective occupancy (load + rate) / phi: a degraded link
     looks proportionally fuller even while empty, a dead one infinitely
     full. Without a fault the rate is a common offset, so the comparison
     reduces to the original raw-load order. *)
  let planned s =
    Delta.occupancy loads ~dead:infinity ~rate:comm.rate d.ids.(s)
  in
  let deviation s = diagonal_deviation d.rect d.head.(s) in
  let fork _ a =
    let la = planned a and lb = planned (a + 1) in
    if la < lb then a
    else if lb < la then a + 1
    else if deviation a <= deviation (a + 1) then a
    else a + 1
  in
  let m = Metrics.current () in
  m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
  Noc.Rect.path d (Noc.Rect.walk d fork)

let route ?(order = Traffic.Communication.By_rate_desc) ?fault mesh comms =
  let loads = Noc.Load.create ?fault mesh in
  let routes =
    List.map
      (fun comm ->
        let path = build_path loads comm in
        Noc.Load.add_path loads path comm.Traffic.Communication.rate;
        Solution.route_single comm path)
      (Traffic.Communication.sort order comms)
  in
  Solution.make mesh routes
