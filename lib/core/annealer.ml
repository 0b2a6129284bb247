(* A local mutation: divert the path around one of its random links; falls
   back to a fresh random path when the geometry offers no diversion. *)
let mutate rng (comm : Traffic.Communication.t) path =
  let n = Noc.Path.length path in
  let fresh () =
    Noc.Path.random
      ~choose:(Traffic.Rng.int rng)
      ~src:comm.src ~snk:comm.snk
  in
  if n = 0 then fresh ()
  else if Traffic.Rng.bool rng then fresh ()
  else
    match Xy_improver.divert path (Traffic.Rng.int rng n) with
    | Some p -> p
    | None -> fresh ()

let anneal rng mesh model comms ~iterations =
  let comms = Array.of_list comms in
  let nc = Array.length comms in
  (* Start from the simple greedy solution: cheap and usually decent. *)
  let start = Simple_greedy.route mesh (Array.to_list comms) in
  let paths = Array.make nc (Noc.Path.xy ~src:comms.(0).src ~snk:comms.(0).snk) in
  Array.iteri
    (fun i c ->
      match Solution.path_of start c with
      | Some p -> paths.(i) <- p
      | None -> assert false)
    comms;
  let loads = Solution.loads start in
  let sc = Delta.scorer model loads in
  let cost = ref (Evaluate.penalized model loads) in
  (* Temperature scale: a feasibility-independent power magnitude (the
     initial state may carry huge overload penalties that would melt the
     schedule into a random walk). *)
  let scale =
    Float.max 1e-9
      (Array.fold_left
         (fun acc (c : Traffic.Communication.t) ->
           acc
           +. float_of_int (Traffic.Communication.length c)
              *. Power.Model.penalized_cost model
                   (Float.min c.rate model.Power.Model.capacity))
         0. comms)
  in
  let best_paths = Array.copy paths and best_cost = ref !cost in
  (* Initial and final temperatures, relative to that scale. *)
  let t0 = 0.02 *. scale and t1 = 1e-4 *. scale in
  let decay =
    if iterations <= 1 then 1.
    else Float.pow (t1 /. t0) (1. /. float_of_int (iterations - 1))
  in
  let temp = ref t0 in
  for _ = 1 to iterations do
    let i = Traffic.Rng.int rng nc in
    let proposal = mutate rng comms.(i) paths.(i) in
    if not (Noc.Path.equal proposal paths.(i)) then begin
      let rate = comms.(i).Traffic.Communication.rate in
      (* The loads carry no fault, so the capped lookup reduces to the
         plain penalized cost. *)
      let delta = Xy_improver.move_delta sc loads rate paths.(i) proposal in
      let accept =
        delta <= 0.
        || Traffic.Rng.float rng < Float.exp (-.delta /. !temp)
      in
      if accept then begin
        Noc.Load.remove_path loads paths.(i) rate;
        Noc.Load.add_path loads proposal rate;
        paths.(i) <- proposal;
        cost := !cost +. delta;
        if !cost < !best_cost then begin
          best_cost := !cost;
          Array.blit paths 0 best_paths 0 nc
        end
      end
    end;
    temp := !temp *. decay
  done;
  (!best_cost, best_paths, comms)

let route ?(seed = 1) ?(iterations = 60_000) ?(restarts = 3) mesh model comms =
  if comms = [] then Solution.make mesh []
  else begin
    let rng = Traffic.Rng.create seed in
    let best = ref None in
    for _ = 1 to max 1 restarts do
      let run_rng = Traffic.Rng.split rng in
      let cost, paths, carr =
        anneal run_rng mesh model comms ~iterations
      in
      match !best with
      | Some (c, _, _) when c <= cost -> ()
      | _ -> best := Some (cost, paths, carr)
    done;
    match !best with
    | Some (_, paths, carr) ->
        Solution.make mesh
          (Array.to_list (Array.map2 Solution.route_single carr paths))
    | None -> assert false
  end
