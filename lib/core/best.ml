type outcome = {
  heuristic : Heuristic.t;
  solution : Solution.t;
  report : Evaluate.report;
}

let run_all ?(heuristics = Heuristic.all) ?fault model mesh comms =
  List.map
    (fun (h : Heuristic.t) ->
      let solution = h.run ?fault model mesh comms in
      {
        heuristic = h;
        solution;
        report = Evaluate.solution ?fault model solution;
      })
    heuristics

let best_of outcomes =
  List.fold_left
    (fun best o ->
      if not o.report.Evaluate.feasible then best
      else
        match best with
        | Some b
          when b.report.Evaluate.total_power <= o.report.Evaluate.total_power
          ->
            best
        | _ -> Some o)
    None outcomes

let route ?heuristics ?fault model mesh comms =
  best_of (run_all ?heuristics ?fault model mesh comms)

let penalized ?fault model solution =
  Evaluate.penalized model (Solution.loads ?fault solution)

let baseline ?fault model mesh comms =
  let outcomes = run_all ?fault model mesh comms in
  match best_of outcomes with
  | Some o -> o
  | None ->
      let scored =
        List.map (fun o -> (penalized ?fault model o.solution, o)) outcomes
      in
      snd
        (List.fold_left
           (fun (c, best) (c', o) -> if c' < c then (c', o) else (c, best))
           (List.hd scored) (List.tl scored))
