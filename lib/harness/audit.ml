module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (* Finite floats travel as %.17g — deterministic, shortest-fixed,
     round-trips bit-exactly through [float_of_string]. JSON has no
     spelling for inf/nan, so non-finite values (an infeasible report's
     total power) are [null]; the [feasible]/[overloaded] fields carry
     the semantics. *)
  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then
          Buffer.add_string buf (Printf.sprintf "%.17g" f)
        else Buffer.add_string buf "null"
    | Str s ->
        Buffer.add_char buf '"';
        Telemetry.escape_json buf s;
        Buffer.add_char buf '"'
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            write buf v)
          l;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Telemetry.escape_json buf k;
            Buffer.add_string buf "\":";
            write buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 512 in
    write buf v;
    Buffer.contents buf
end

open Json

let audit_schema = "manroute-audit/1"
let inspect_schema = "manroute-inspect/1"

(* ------------------------------------------------------------------ *)
(* JSON views of the probe / evaluation layer *)

let json_of_link l = Str (Format.asprintf "%a" Noc.Mesh.pp_link l)

let json_of_report (r : Routing.Evaluate.report) =
  Obj
    [
      ("feasible", Bool r.feasible);
      ("total_power", Float r.total_power);
      ("static_power", Float r.static_power);
      ("dynamic_power", Float r.dynamic_power);
      ("active_links", Int r.active_links);
      ("max_load", Float r.max_load);
      ("detour_hops", Int r.detour_hops);
      ( "overloaded",
        List
          (List.map
             (fun (l, eff) ->
               Obj [ ("link", json_of_link l); ("effective_load", Float eff) ])
             r.overloaded) );
    ]

let json_of_occupant (o : Routing.Probe.occupant) =
  Obj
    [
      ("comm", Int o.comm.Traffic.Communication.id);
      ("share", Float o.share);
      ("fraction", Float o.fraction);
      ("power", Float o.power);
    ]

let json_of_link_probe (l : Routing.Probe.link_probe) =
  Obj
    [
      ("id", Int l.link_id);
      ("link", json_of_link l.link);
      ("occupancy", Float l.occupancy);
      ("factor", Float l.factor);
      ("effective_capacity", Float l.effective_capacity);
      ("effective_load", Float l.effective_load);
      ("level", Int l.level);
      ("power", Float l.link_power);
      ("overloaded", Bool l.overloaded);
      ("occupants", List (List.map json_of_occupant l.occupants));
    ]

let json_of_probe (p : Routing.Probe.t) =
  Obj
    [
      ("report", json_of_report p.report);
      ("attributed_total", Float p.attributed_total);
      ( "links",
        (* Idle links carry no information; the grid is recoverable from
           the mesh dimensions plus this active subset. *)
        List
          (Array.to_list p.grid
          |> List.filter (fun (l : Routing.Probe.link_probe) ->
                 l.occupancy > 0.)
          |> List.map json_of_link_probe) );
      ( "comms",
        List
          (List.map
             (fun (c : Routing.Probe.comm_row) ->
               Obj
                 [
                   ("comm", Int c.comm.Traffic.Communication.id);
                   ( "src",
                     Str (Noc.Coord.to_string c.comm.Traffic.Communication.src)
                   );
                   ( "snk",
                     Str (Noc.Coord.to_string c.comm.Traffic.Communication.snk)
                   );
                   ("rate", Float c.comm.Traffic.Communication.rate);
                   ("attributed", Float c.attributed);
                   ("residual", Float c.residual);
                   ("links", Int (List.length c.links));
                   ("convicted", List (List.map (fun id -> Int id) c.convicted));
                 ])
             p.comms) );
      ( "blame",
        List
          (List.map
             (fun ((l : Routing.Probe.link_probe), occs) ->
               Obj
                 [
                   ("id", Int l.link_id);
                   ("link", json_of_link l.link);
                   ("effective_load", Float l.effective_load);
                   ("effective_capacity", Float l.effective_capacity);
                   ("convicts", List (List.map json_of_occupant occs));
                 ])
             p.blame) );
    ]

let json_of_recover (r : Optim.Recover.report) =
  Obj
    [
      ("event", Str (Format.asprintf "%a" Noc.Fault.Schedule.pp_event r.event));
      ("rung", Int r.rung);
      ("live", Int r.live);
      ("survival", Float r.survival);
      ("power_before", Float r.power_before);
      ("power_after", Float r.power_after);
      ("passes", Int r.passes);
      ("rips", Int r.rips);
      ("reroutes", Int r.reroutes);
      ( "shed",
        List
          (List.map
             (fun (s : Optim.Recover.shed) ->
               Obj
                 [
                   ("comm", Int s.comm.Traffic.Communication.id);
                   ( "reason",
                     Str (Format.asprintf "%a" Optim.Recover.pp_reason s.reason)
                   );
                 ])
             r.shed_now) );
      ( "readmitted",
        List
          (List.map
             (fun (c : Traffic.Communication.t) ->
               Int c.Traffic.Communication.id)
             r.readmitted) );
    ]

(* ------------------------------------------------------------------ *)
(* Audit records *)

type kind = Worst | Errored | Shed

let kind_label = function
  | Worst -> "worst"
  | Errored -> "errored"
  | Shed -> "shed"

type cell = {
  cell_name : string;
  outcome : (Routing.Evaluate.report, string) result;
  note : Routing.Heuristic.note option;
  objectives : Optim.Pareto.objectives option;
}

type record = {
  figure_id : string;
  seed : int;
  trials : int;
  x : float;
  trial : int;
  kinds : kind list;
  cells : cell list;
  best : string option;
  front : string list option;
  probe : Routing.Probe.t option;
}

let json_of_objectives (o : Optim.Pareto.objectives) =
  Obj
    [
      ("power", Float o.power);
      ("p50", Float o.p50);
      ("p95", Float o.p95);
      ("slope", Float o.slope);
    ]

let json_of_cell c =
  Obj
    (("name", Str c.cell_name)
     ::
     (match c.outcome with
     | Ok r -> [ ("report", json_of_report r) ]
     | Error m -> [ ("error", Str m) ])
    @ (match c.note with
      | Some (Optim.Pathfinder.Negotiation a) ->
          [
            ( "pathfinder",
              Obj
                [
                  ("iterations", Int a.Optim.Pathfinder.a_iterations);
                  ("rips", Int a.a_rips);
                  ("kept", Bool a.a_kept);
                ] );
          ]
      | Some (Optim.Recover.Reports reports) ->
          [ ("recover", List (List.map json_of_recover reports)) ]
      | _ -> [])
    @
    match c.objectives with
    | Some o -> [ ("objectives", json_of_objectives o) ]
    | None -> [])

let record_line r =
  Json.to_string
    (Obj
       ([
          ("schema", Str audit_schema);
          ("figure", Str r.figure_id);
          ("seed", Int r.seed);
          ("trials", Int r.trials);
          ("x", Float r.x);
          ("trial", Int r.trial);
          ("kinds", List (List.map (fun k -> Str (kind_label k)) r.kinds));
        ]
       @ (match r.best with Some b -> [ ("best", Str b) ] | None -> [])
       @ (match r.front with
         | Some names -> [ ("front", List (List.map (fun n -> Str n) names)) ]
         | None -> [])
       @ [ ("cells", List (List.map json_of_cell r.cells)) ]
       @
       match r.probe with
       | Some p -> [ ("probe", json_of_probe p) ]
       | None -> []))

(* ------------------------------------------------------------------ *)
(* Jobs-invariant trial selection *)

type verdict = { best_power : float option; errored : bool; shed : bool }

let select verdicts =
  (* Worst-power trial: maximal BEST total power among feasible trials,
     first such index on ties. A pure function of the per-trial verdict
     array, which the runner computes in trial order whatever the worker
     count — so the audited trial set is jobs-invariant. *)
  let worst = ref None in
  Array.iteri
    (fun i v ->
      match v.best_power with
      | Some p -> (
          match !worst with
          | Some (_, bp) when bp >= p -> ()
          | _ -> worst := Some (i, p))
      | None -> ())
    verdicts;
  let selected = ref [] in
  Array.iteri
    (fun i v ->
      let kinds =
        (match !worst with Some (j, _) when j = i -> [ Worst ] | _ -> [])
        @ (if v.errored then [ Errored ] else [])
        @ if v.shed then [ Shed ] else []
      in
      if kinds <> [] then selected := (i, kinds) :: !selected)
    verdicts;
  List.rev !selected

(* ------------------------------------------------------------------ *)
(* Sinks and artifact files *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

type sink = { path : string; oc : out_channel }

let create ~dir ~figure_id =
  mkdir_p dir;
  let path = Filename.concat dir (figure_id ^ "-audit.jsonl") in
  { path; oc = open_out path }

let path s = s.path

let write s r =
  output_string s.oc (record_line r);
  output_char s.oc '\n';
  flush s.oc

let close s = close_out s.oc

let write_inspect_file ~path ~meta probe =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Obj
          ((("schema", Str inspect_schema) :: meta)
          @ [ ("probe", json_of_probe probe) ])));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Artifact checkers (CI; no external JSON tool) *)

let has_field line key = Telemetry.find_field line key <> None

let field_is line key value =
  match Telemetry.find_field line key with
  | None -> false
  | Some i ->
      let pat = "\"" ^ value ^ "\"" in
      String.length line - i >= String.length pat
      && String.sub line i (String.length pat) = pat

let validate_file path =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let snippet = Telemetry.snippet in
  let lines =
    String.split_on_char '\n' (Telemetry.read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go n = function
    | [] -> Ok n
    | line :: tl ->
        if not (Telemetry.balanced_json line) then
          fail "line %d: unbalanced record: %s" (n + 1) (snippet line)
        else if
          String.length line < 2
          || line.[0] <> '{'
          || line.[String.length line - 1] <> '}'
        then fail "line %d: not a JSON object: %s" (n + 1) (snippet line)
        else if not (field_is line "schema" audit_schema) then
          fail "line %d: missing schema %S: %s" (n + 1) audit_schema
            (snippet line)
        else if
          not
            (has_field line "figure" && has_field line "trial"
            && has_field line "kinds" && has_field line "cells"
            && Telemetry.float_field line "x" <> None)
        then
          fail "line %d: missing figure/x/trial/kinds/cells: %s" (n + 1)
            (snippet line)
        else go (n + 1) tl
  in
  go 0 lines
