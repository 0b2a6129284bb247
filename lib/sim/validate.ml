type verdict = {
  report : Network.report;
  worst_fraction : float;
  all_delivered : bool;
}

let run ?config ?(cycles = 20_000) ?(threshold = 0.9) model solution =
  let net = Network.create ?config model solution in
  let report = Network.run net ~cycles in
  let worst_fraction =
    List.fold_left
      (fun acc (s : Network.comm_stats) ->
        Float.min acc (s.delivered_rate /. s.requested_rate))
      infinity report.Network.comms
  in
  let worst_fraction = if worst_fraction = infinity then 1. else worst_fraction in
  {
    report;
    worst_fraction;
    all_delivered =
      (not report.Network.deadlocked) && worst_fraction >= threshold;
  }
