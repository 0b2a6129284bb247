type report = {
  feasible : bool;
  total_power : float;
  static_power : float;
  dynamic_power : float;
  active_links : int;
  max_load : float;
  overloaded : (Noc.Mesh.link * float) list;
  detour_hops : int;
}

(* The evaluator totals per-link costs in a canonical, order-independent
   form so that an incrementally maintained state ({!Delta}) can
   reproduce a from-scratch scan bit-for-bit. In discrete mode every
   feasible active link costs one of a handful of level values; grouping
   the sum by level and expressing each group as repeated addition
   ({!Power.Model.sum_repeat}) makes the totals a function of per-level
   counts alone, never of the order links were visited in. Continuous
   mode keeps a link-id-order dynamic sum (each link's dynamic term is
   unique), which Delta reproduces by rescanning — still cheap, since the
   scan pays no [Float.pow] thanks to the cost table. *)
type tally = {
  t_active : int;
  t_max_load : float;  (* max effective load over active links *)
  t_level_count : int array;  (* feasible active links per discrete level *)
  t_cont_dynamic : float;  (* continuous-mode dynamic sum, link-id order *)
  t_over_rev : (int * float) list;
      (* overloaded (id, effective load), decreasing id *)
}

let tally_of_loads table loads =
  let model = Power.Model.table_model table in
  let nlev = Power.Model.table_nlevels table in
  let level_count = Array.make (max 1 nlev) 0 in
  let active = ref 0 and max_load = ref 0. in
  let cont_dynamic = ref 0. and over = ref [] in
  Noc.Load.iter
    (fun id load ->
      if load > 0. then begin
        incr active;
        let eff = Noc.Load.get_effective loads id in
        if eff > !max_load then max_load := eff;
        let cls =
          Power.Model.table_classify table ~factor:(Noc.Load.factor loads id)
            load
        in
        if cls = Power.Model.overloaded_class then over := (id, eff) :: !over
        else if nlev = 0 then
          cont_dynamic := !cont_dynamic +. Power.Model.dynamic_power model load
        else level_count.(cls) <- level_count.(cls) + 1
      end)
    loads;
  {
    t_active = !active;
    t_max_load = !max_load;
    t_level_count = level_count;
    t_cont_dynamic = !cont_dynamic;
    t_over_rev = !over;
  }

type totals_cache = {
  c_static : Power.Model.sums;
  c_dynamic : Power.Model.sums array;
}

let totals_cache table =
  {
    c_static =
      Power.Model.sums (Power.Model.table_model table).Power.Model.p_leak;
    c_dynamic =
      Array.init (Power.Model.table_nlevels table) (fun i ->
          Power.Model.sums (Power.Model.table_dynamic table i));
  }

let report_of_tally ?cache table mesh tally =
  let model = Power.Model.table_model table in
  let carrying = tally.t_active - List.length tally.t_over_rev in
  let static =
    match cache with
    | Some c -> Power.Model.sums_get c.c_static carrying
    | None -> Power.Model.sum_repeat model.Power.Model.p_leak carrying
  in
  let dynamic =
    if Power.Model.table_nlevels table = 0 then tally.t_cont_dynamic
    else begin
      let acc = ref 0. in
      Array.iteri
        (fun i c ->
          acc :=
            !acc
            +.
            match cache with
            | Some ch -> Power.Model.sums_get ch.c_dynamic.(i) c
            | None ->
                Power.Model.sum_repeat (Power.Model.table_dynamic table i) c)
        tally.t_level_count;
      !acc
    end
  in
  let overloaded =
    List.sort
      (fun (_, a) (_, b) -> Float.compare b a)
      (List.map
         (fun (id, eff) -> (Noc.Mesh.link_of_id mesh id, eff))
         tally.t_over_rev)
  in
  let feasible = overloaded = [] in
  {
    feasible;
    total_power = (if feasible then static +. dynamic else infinity);
    static_power = static;
    dynamic_power = dynamic;
    active_links = tally.t_active;
    max_load = tally.t_max_load;
    overloaded;
    detour_hops = 0;
  }

let of_loads model loads =
  let m = Metrics.current () in
  m.Metrics.feasibility_checks <- m.Metrics.feasibility_checks + 1;
  let table =
    Metrics.with_span "delta-table" (fun () -> Power.Model.table model)
  in
  report_of_tally table (Noc.Load.mesh loads) (tally_of_loads table loads)

let solution ?fault model s =
  { (of_loads model (Solution.loads ?fault s)) with
    detour_hops = Solution.detour_hops s }

let power ?fault model s =
  let r = solution ?fault model s in
  if r.feasible then Some r.total_power else None

let power_exn ?fault model s =
  match power ?fault model s with
  | Some p -> p
  | None -> invalid_arg "Evaluate.power_exn: infeasible solution"

(* Power per unit of delivered bandwidth: mW per Mb/s of requested
   traffic, i.e. (up to units) energy per bit. *)
let power_per_rate ?fault model s =
  let r = solution ?fault model s in
  if not r.feasible then None
  else
    let demand =
      List.fold_left
        (fun acc (route : Solution.route) ->
          acc +. route.comm.Traffic.Communication.rate)
        0. (Solution.routes s)
    in
    if demand <= 0. then None else Some (r.total_power /. demand)

let overload_mask mesh r =
  let mask = Array.make (Noc.Mesh.num_links mesh) false in
  List.iter
    (fun (l, _) -> mask.(Noc.Mesh.link_id mesh l) <- true)
    r.overloaded;
  mask

let penalized model loads =
  let table = Power.Model.table model in
  Noc.Load.fold
    (fun id load acc ->
      acc
      +. Power.Model.table_cost table ~factor:(Noc.Load.factor loads id) load)
    loads 0.

let pp_report ppf r =
  if r.feasible then
    Format.fprintf ppf
      "feasible: P=%.3f mW (static %.3f + dynamic %.3f), %d active links, \
       max load %g%s"
      r.total_power r.static_power r.dynamic_power r.active_links r.max_load
      (if r.detour_hops > 0 then
         Printf.sprintf ", detours +%d hops" r.detour_hops
       else "")
  else
    Format.fprintf ppf "INFEASIBLE: %d overloaded links, max load %g"
      (List.length r.overloaded)
      r.max_load
