(* The Figure 3 ideal distribution: the rate split evenly over the links
   of each step. *)
let apply_preroute loads (d : Noc.Rect.dag) rate sign =
  for k = 0 to Noc.Rect.length d.rect - 1 do
    let share = rate /. float_of_int (d.steps.(k + 1) - d.steps.(k)) in
    for s = d.steps.(k) to d.steps.(k + 1) - 1 do
      Noc.Load.add loads d.ids.(s) (sign *. share)
    done
  done

(* Cost of sending [rate] more through a link, on top of its current
   (committed + virtual) load. Penalized so that the bound stays defined
   when the instance is overloaded; capped by the link's fault factor so
   dead and degraded links repel traffic. Scored through the delta
   engine's memoized cost table. *)
let marginal sc rate id =
  Delta.cost sc id (Noc.Load.get (Delta.scorer_loads sc) id +. rate)

let build_path sc (d : Noc.Rect.dag) rate =
  let n = Noc.Rect.length d.rect in
  (* Suffix bounds: remainder.(k) = sum over steps k..n-1 of the cheapest
     per-step link cost; computed once, they do not depend on the branch
     taken (the paper's relaxation ignores reachability). *)
  let remainder = Array.make (n + 1) 0. in
  for k = n - 1 downto 0 do
    let cheapest = ref infinity in
    for s = d.steps.(k) to d.steps.(k + 1) - 1 do
      cheapest := Float.min !cheapest (marginal sc rate d.ids.(s))
    done;
    remainder.(k) <- remainder.(k + 1) +. !cheapest
  done;
  let fork k a =
    let bound s = marginal sc rate d.ids.(s) +. remainder.(k + 1) in
    if bound a <= bound (a + 1) then a else a + 1
  in
  let m = Metrics.current () in
  m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
  Noc.Rect.path d (Noc.Rect.walk d fork)

let route ?(order = Traffic.Communication.By_rate_desc) ?fault mesh model
    comms =
  let loads = Noc.Load.create ?fault mesh in
  let sc = Delta.scorer model loads in
  let sorted =
    List.map
      (fun comm ->
        (comm, Noc.Rect.compile mesh (Traffic.Communication.rect comm)))
      (Traffic.Communication.sort order comms)
  in
  List.iter
    (fun ((comm : Traffic.Communication.t), d) ->
      apply_preroute loads d comm.rate 1.)
    sorted;
  let routes =
    List.map
      (fun ((comm : Traffic.Communication.t), d) ->
        apply_preroute loads d comm.rate (-1.);
        let path = build_path sc d comm.rate in
        Noc.Load.add_path loads path comm.rate;
        Solution.route_single comm path)
      sorted
  in
  Solution.make mesh routes
