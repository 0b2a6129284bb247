type result = {
  loads : Noc.Load.t;
  objective : float;
  gap : float;
  iterations : int;
}

type flow = {
  comm : Traffic.Communication.t;
  dag : Noc.Rect.dag;
  shares : float array;  (** Flow on each slot of [dag], in rate units. *)
}

(* Even-branching spread as a warm start: every core forwards its inflow
   in equal halves (or whole) along its forward links. This approximates
   the paper's Figure 3 diagonal spread while being a genuine flow — the
   per-diagonal even spread balances steps but not cores, and a
   non-conserved start would leave every FW iterate non-conserved too,
   breaking the decomposability {!solve_flows} promises. Slots run in step
   order, so a core's inflow is complete before its out-slots read it. *)
let initial_flow mesh (comm : Traffic.Communication.t) =
  let dag = Noc.Rect.compile mesh (Traffic.Communication.rect comm) in
  let shares = Array.make (Array.length dag.ids) 0. in
  let inflow = Array.make (Array.length dag.out) 0. in
  inflow.(0) <- comm.rate;
  Array.iteri
    (fun s o ->
      let share = inflow.(o) /. float_of_int (Noc.Rect.out_degree dag o) in
      shares.(s) <- share;
      inflow.(dag.head.(s)) <- share +. inflow.(dag.head.(s)))
    dag.tail;
  { comm; dag; shares }

(* Cheapest path of the rectangle DAG under per-link weights; returns the
   indicator shares (full rate on the chosen path). *)
let shortest_shares weights fl =
  let shares = Array.make (Array.length fl.shares) 0. in
  match
    Noc.Rect.cheapest fl.dag
      ~usable:(fun _ -> true)
      ~cost:(fun s -> weights fl.dag.ids.(s))
  with
  | None -> assert false (* every rectangle link is usable *)
  | Some (slots, _) ->
      Array.iter
        (fun s -> shares.(s) <- fl.comm.Traffic.Communication.rate)
        slots;
      shares

(* Generic Frank-Wolfe over the product of per-communication path
   polytopes, for a separable convex objective given by per-link [value]
   and [slope]. Returns the final per-communication flows alongside the
   aggregate result: the s-MP engine decomposes them into paths. *)
let solve_generic ~iterations ~value ~slope mesh comms =
  let flows = List.map (initial_flow mesh) comms in
  let loads = Noc.Load.create mesh in
  List.iter
    (fun fl ->
      Array.iteri (fun s id -> Noc.Load.add loads id fl.shares.(s)) fl.dag.ids)
    flows;
  let objective_of () =
    Noc.Load.fold (fun _ load acc -> acc +. value load) loads 0.
  in
  let gap = ref infinity in
  let iters = ref 0 in
  let gradient id = slope (Noc.Load.get loads id) in
  (try
     for t = 1 to iterations do
       iters := t;
       (* Linearized subproblem: per communication, ship everything on the
          gradient-cheapest path. *)
       let targets =
         List.map (fun fl -> shortest_shares gradient fl) flows
       in
       (* Duality gap <grad, current - target>. Its last bits depend on
          the summation order: step by step, each step's slots last to
          first. *)
       let g = ref 0. in
       List.iter2
         (fun fl target ->
           let { Noc.Rect.ids; steps; rect; _ } = fl.dag in
           for k = 0 to Noc.Rect.length rect - 1 do
             for s = steps.(k + 1) - 1 downto steps.(k) do
               g := !g +. (gradient ids.(s) *. (fl.shares.(s) -. target.(s)))
             done
           done)
         flows targets;
       gap := Float.max 0. !g;
       if !gap <= 1e-9 *. Float.max 1. (objective_of ()) then raise Exit;
       (* Exact line search on gamma in [0,1]: the objective along the
          segment is convex; bisect its derivative. *)
       let delta = Noc.Load.create mesh in
       List.iter2
         (fun fl target ->
           Array.iteri
             (fun s id -> Noc.Load.add delta id (target.(s) -. fl.shares.(s)))
             fl.dag.ids)
         flows targets;
       let derivative gamma =
         Noc.Load.fold
           (fun id d acc ->
             if d = 0. then acc
             else acc +. (d *. slope (Noc.Load.get loads id +. (gamma *. d))))
           delta 0.
       in
       let gamma =
         if derivative 1. <= 0. then 1.
         else begin
           let lo = ref 0. and hi = ref 1. in
           for _ = 1 to 40 do
             let mid = 0.5 *. (!lo +. !hi) in
             if derivative mid > 0. then hi := mid else lo := mid
           done;
           0.5 *. (!lo +. !hi)
         end
       in
       if gamma > 0. then
         List.iter2
           (fun fl target ->
             Array.iteri
               (fun s id ->
                 let d = gamma *. (target.(s) -. fl.shares.(s)) in
                 fl.shares.(s) <- fl.shares.(s) +. d;
                 Noc.Load.add loads id d)
               fl.dag.ids)
           flows targets
     done
   with Exit -> ());
  ( { loads; objective = objective_of (); gap = !gap; iterations = !iters },
    flows )

let power_objective model =
  let alpha = model.Power.Model.alpha
  and p0 = model.Power.Model.p0
  and scale = model.Power.Model.gbps_scale in
  let value load =
    if load > 0. then p0 *. Float.pow (load /. scale) alpha else 0.
  and slope load =
    if load <= 0. then 0.
    else alpha *. p0 /. scale *. Float.pow (load /. scale) (alpha -. 1.)
  in
  (value, slope)

let solve_flows ?(iterations = 200) model mesh comms =
  let value, slope = power_objective model in
  solve_generic ~iterations ~value ~slope mesh comms

let solve ?iterations model mesh comms =
  fst (solve_flows ?iterations model mesh comms)

let lower_bound ?iterations model mesh comms =
  let r = solve ?iterations model mesh comms in
  Float.max 0. (r.objective -. r.gap)

let min_overload ?(iterations = 400) model mesh comms =
  let cap = model.Power.Model.capacity in
  let value load =
    let e = load -. cap in
    if e > 0. then e *. e else 0.
  and slope load =
    let e = load -. cap in
    if e > 0. then 2. *. e else 0.
  in
  let r, _ = solve_generic ~iterations ~value ~slope mesh comms in
  let worst =
    Noc.Load.fold
      (fun _ load acc -> Float.max acc (load -. cap))
      r.loads 0.
  in
  (Float.max 0. worst, r)

let fractionally_feasible ?iterations ?(tolerance = 1e-6) model mesh comms =
  let worst, _ = min_overload ?iterations model mesh comms in
  worst <= tolerance *. model.Power.Model.capacity
