type t = {
  name : string;
  description : string;
  run :
    ?fault:Noc.Fault.t ->
    Power.Model.t ->
    Noc.Mesh.t ->
    Traffic.Communication.t list ->
    Solution.t;
}

(* Final guard of every policy: whatever the native fault handling missed
   (dead-end tie-breaks, cut rectangles) is rerouted here, so no heuristic
   ever returns a solution crossing a dead link. *)
let repair fault model s =
  match fault with
  | Some f when not (Noc.Fault.is_trivial f) ->
      Metrics.with_span "repair" (fun () -> Repair.solution f model s)
  | _ -> s

let of_fault_aware ~name ~description aware =
  {
    name;
    description;
    run =
      (fun ?fault model mesh comms ->
        repair fault model (aware ?fault model mesh comms));
  }

type note = ..

(* One slot per domain, written only by the [of_noted] adapter: a run is
   synchronous on its domain, so whatever the slot holds when [h.run]
   returns is the note of that very run. *)
let slot : note option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let of_noted ~name ~description engine =
  of_fault_aware ~name ~description (fun ?fault model mesh comms ->
      let solution, note = engine ?fault model mesh comms in
      Domain.DLS.get slot := note;
      solution)

let run_noted h ?fault model mesh comms =
  let slot = Domain.DLS.get slot in
  slot := None;
  let drain () =
    let note = !slot in
    slot := None;
    note
  in
  match h.run ?fault model mesh comms with
  | solution -> (solution, drain ())
  | exception e ->
      ignore (drain ());
      raise e

let of_plain ~name ~description plain =
  of_fault_aware ~name ~description (fun ?fault:_ model mesh comms ->
      plain model mesh comms)

let xy =
  of_plain ~name:"XY"
    ~description:
      "dimension-ordered routing: horizontal first, then vertical"
    (fun _model mesh comms -> Xy.route mesh comms)

let sg =
  of_fault_aware ~name:"SG"
    ~description:"simple greedy: hop-by-hop least-loaded link"
    (fun ?fault _model mesh comms -> Simple_greedy.route ?fault mesh comms)

let ig =
  of_fault_aware ~name:"IG"
    ~description:"improved greedy: virtual pre-routing + per-step power bound"
    (fun ?fault model mesh comms ->
      Improved_greedy.route ?fault mesh model comms)

let tb =
  of_fault_aware ~name:"TB"
    ~description:"two-bend: best among all <=2-bend routings"
    (fun ?fault model mesh comms -> Two_bend.route ?fault mesh model comms)

let xyi =
  of_fault_aware ~name:"XYI"
    ~description:"XY improver: local diversions off the hottest links"
    (fun ?fault model mesh comms -> Xy_improver.route ?fault mesh model comms)

let pr =
  of_fault_aware ~name:"PR"
    ~description:"path remover: prune the all-paths ideal spread to one path"
    (fun ?fault _model mesh comms -> Path_remover.route ?fault mesh comms)

let all = [ xy; sg; ig; tb; xyi; pr ]
let manhattan = [ sg; ig; tb; xyi; pr ]

let find name =
  let name = String.uppercase_ascii name in
  List.find_opt (fun h -> h.name = name) all

let parse_family ~prefix ~default ~min name =
  let name = String.lowercase_ascii (String.trim name) in
  if not (String.starts_with ~prefix name) then None
  else
    let n = String.length prefix in
    match String.sub name n (String.length name - n) with
    | "" -> Some default
    | rest -> (
        let rest =
          if
            String.length rest >= 2
            && rest.[0] = '('
            && rest.[String.length rest - 1] = ')'
          then String.sub rest 1 (String.length rest - 2)
          else rest
        in
        match int_of_string_opt rest with
        | Some k when k >= min -> Some k
        | _ -> None)
