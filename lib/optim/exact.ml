open Routing

type result =
  | Optimal of Solution.t * float
  | Infeasible
  | Timeout of { nodes : int; incumbent : (Solution.t * float) option }

(* Continuous-frequency power of the current loads: a lower bound on the
   power of any completion under either frequency mode. *)
let continuous_power model loads =
  Noc.Load.fold
    (fun _ load acc ->
      if load <= 0. then acc
      else
        acc +. model.Power.Model.p_leak +. Power.Model.dynamic_power model load)
    loads 0.

let route ?(max_nodes = 5_000_000) ?fault model mesh comms =
  let comms =
    Array.of_list (Traffic.Communication.sort By_rate_desc comms)
  in
  let nc = Array.length comms in
  (* Residual admissible increments: tail.(i) bounds the power added by
     communications i..nc-1 on top of any partial routing. *)
  let tail = Array.make (nc + 1) 0. in
  for i = nc - 1 downto 0 do
    let c = comms.(i) in
    tail.(i) <-
      tail.(i + 1)
      +. float_of_int (Traffic.Communication.length c)
         *. Power.Model.dynamic_power model c.Traffic.Communication.rate
  done;
  let loads = Noc.Load.create ?fault mesh in
  let chosen = Array.make nc None in
  let best = ref None in
  let nodes = ref 0 in
  let truncated = ref false in
  let rec branch i =
    if !truncated then ()
    else if i = nc then begin
      let report = Evaluate.of_loads model loads in
      if report.Evaluate.feasible then
        match !best with
        | Some (_, p) when p <= report.Evaluate.total_power -. 1e-12 -> ()
        | _ ->
            let routes =
              Array.to_list
                (Array.mapi
                   (fun j p -> Solution.route_single comms.(j) (Option.get p))
                   chosen)
            in
            best := Some (Solution.make mesh routes, report.Evaluate.total_power)
    end
    else begin
      let c = comms.(i) in
      let rate = c.Traffic.Communication.rate in
      Noc.Path.fold_all
        (fun () path ->
          if !truncated then ()
          else begin
            incr nodes;
            if !nodes > max_nodes then truncated := true
            else begin
              (* Capacity check along the candidate path, against each
                 link's (possibly fault-degraded) ceiling. *)
              let fits =
                Array.for_all
                  (fun id ->
                    Power.Model.is_feasible_capped model
                      ~factor:(Noc.Load.factor loads id)
                      (Noc.Load.get loads id +. rate))
                  (Noc.Path.ids mesh path)
              in
              if fits then begin
                Noc.Load.add_path loads path rate;
                let bound = continuous_power model loads +. tail.(i + 1) in
                let keep =
                  match !best with
                  | Some (_, p) -> bound < p -. 1e-12
                  | None -> true
                in
                if keep then begin
                  chosen.(i) <- Some path;
                  branch (i + 1);
                  chosen.(i) <- None
                end;
                Noc.Load.remove_path loads path rate
              end
            end
          end)
        ()
        ~src:c.Traffic.Communication.src ~snk:c.Traffic.Communication.snk
    end
  in
  branch 0;
  let m = Metrics.current () in
  m.Metrics.bb_nodes <- m.Metrics.bb_nodes + !nodes;
  match (!truncated, !best) with
  | false, Some (s, p) -> Optimal (s, p)
  | false, None -> Infeasible
  | true, incumbent -> Timeout { nodes = !nodes; incumbent }

let route_solution ?max_nodes ?fault model mesh comms =
  match route ?max_nodes ?fault model mesh comms with
  | Optimal (s, _) -> Some s
  | Timeout { incumbent = Some (s, _); _ } -> Some s
  | Infeasible | Timeout { incumbent = None; _ } -> None
