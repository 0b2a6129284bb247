(** End-to-end validation of a routing solution on the wormhole simulator.

    A bandwidth-feasible routing must deliver (close to) every requested
    rate; an infeasible one starves at least one communication. This is the
    experiment E11 entry point. *)

type verdict = {
  report : Network.report;
  worst_fraction : float;
      (** Minimum over communications of delivered/requested. *)
  all_delivered : bool;
      (** [worst_fraction >= threshold] and no deadlock. *)
}

val run :
  ?config:Config.t ->
  ?cycles:int ->
  ?threshold:float ->
  Power.Model.t ->
  Routing.Solution.t ->
  verdict
(** Defaults: 20_000 measured cycles, threshold 0.9. *)
