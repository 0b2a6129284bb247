(** Uniform registry of the single-path routing policies.

    All six policies of the paper's Section 6 behind one signature, for the
    simulation harness, the CLI and the benchmarks. Every policy returns a
    solution unconditionally; whether it {e succeeded} is decided by
    {!Evaluate.solution} (a policy "fails" on an instance when its solution
    violates some link capacity, which is how the paper counts failures).

    Under a fault scenario ([?fault]) every policy natively steers away
    from dead and degraded links, and is additionally guarded by
    {!Repair.solution}: the returned routes never cross a dead link,
    detouring off the Manhattan rectangle when the fault cut all its paths.
    [Repair.No_route] escapes when a communication's endpoints are
    disconnected — the harness records it as a structured trial error. *)

type t = {
  name : string;  (** Short name used in the paper's plots: XY, SG, ... *)
  description : string;
  run :
    ?fault:Noc.Fault.t ->
    Power.Model.t ->
    Noc.Mesh.t ->
    Traffic.Communication.t list ->
    Solution.t;
}

val of_fault_aware :
  name:string ->
  description:string ->
  (?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Solution.t) ->
  t
(** Lift a natively fault-aware routing function into the registry
    signature, adding the {!Repair.solution} final guard (the policy may
    still corner itself into a dead end its native steering cannot fix).
    All built-in policies and the s-MP engine go through this. *)

type note = ..
(** An engine's typed extra result, handed over next to its solution:
    PathFinder's negotiation annotation, Recover's per-event reports, an
    Online session. The engines above this library extend it. *)

val of_noted :
  name:string ->
  description:string ->
  (?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Solution.t * note option) ->
  t
(** {!of_fault_aware} for an engine that also returns a note: the adapter
    leaves the note in a per-domain slot, where {!run_noted} picks it up.
    [run] keeps its plain type, so wrappers that override it by record
    update still work. *)

val run_noted :
  t ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  Solution.t * note option
(** [h.run] plus the note its engine left: clears this domain's slot,
    runs, and drains the slot — also when [h.run] raises, so a note never
    outlives its run. [None] for heuristics built without {!of_noted}. *)

val of_plain :
  name:string ->
  description:string ->
  (Power.Model.t -> Noc.Mesh.t -> Traffic.Communication.t list -> Solution.t) ->
  t
(** Lift a fault-oblivious routing function into the registry signature:
    with a non-trivial fault its output is post-repaired via
    {!Repair.solution}. Used for XY and for external policies (the CLI's
    SA/PRMP extensions). *)

val xy : t
val sg : t
val ig : t
val tb : t
val xyi : t
val pr : t

val all : t list
(** [xy; sg; ig; tb; xyi; pr] — the order used in the paper's legends. *)

val manhattan : t list
(** The five Manhattan heuristics (everything but XY). *)

val find : string -> t option
(** Case-insensitive lookup by {!field-name}. *)

val parse_family :
  prefix:string -> default:int -> min:int -> string -> int option
(** The parameter of a family spelling, case-insensitive and trimmed: the
    bare [prefix] gives [default], [prefixN] and [prefix(N)] give [N]
    when [N >= min]; [None] for anything else. Shared by the engines'
    [find] functions (["pf8"], ["REC(12)"], ...). *)
