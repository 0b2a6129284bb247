(* Streaming arrival/departure traces (see trace.mli). *)

type kind = Arrive of Communication.t | Depart of int
type event = { time : float; kind : kind }
type profile = Poisson | Diurnal | Burst | Hotspot

let profiles =
  [
    ("poisson", Poisson);
    ("diurnal", Diurnal);
    ("burst", Burst);
    ("hotspot", Hotspot);
  ]

let profile_name = function
  | Poisson -> "poisson"
  | Diurnal -> "diurnal"
  | Burst -> "burst"
  | Hotspot -> "hotspot"

let profile_of_string s =
  List.assoc_opt (String.lowercase_ascii (String.trim s)) profiles

let pp_profile ppf p = Format.pp_print_string ppf (profile_name p)

let event_id e =
  match e.kind with Arrive c -> c.Communication.id | Depart id -> id

let kind_rank e = match e.kind with Arrive _ -> 0 | Depart _ -> 1

(* Total event order: time, then communication id, arrivals before
   departures. Float times essentially never tie, but determinism must
   not hinge on that; ids are unique per stream (and required unique
   across merged streams), so the order is total on any valid trace. *)
let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare (event_id a) (event_id b) in
    if c <> 0 then c else Int.compare (kind_rank a) (kind_rank b)

let sort_events evs = List.sort compare_event evs
let merge a b = sort_events (a @ b)

(* Mean holding time is the time unit: steady-state concurrency is then
   [rate] live communications by Little's law, so sweeping the arrival
   rate sweeps the load the engine holds. *)
let mean_lifetime = 1.
let lifetime rng = Rng.uniform rng ~lo:(0.5 *. mean_lifetime) ~hi:(1.5 *. mean_lifetime)

(* Exponential inter-arrival with instantaneous rate [lambda]. *)
let exp_draw rng lambda = -.Float.log1p (-.Rng.float rng) /. lambda

let hotspot_core mesh =
  Noc.Coord.make
    ~row:((Noc.Mesh.rows mesh + 1) / 2)
    ~col:((Noc.Mesh.cols mesh + 1) / 2)

let generate ?(id_base = 0) rng mesh ~profile ~arrivals ~rate ~weight =
  if arrivals < 0 then invalid_arg "Trace.generate: arrivals < 0";
  if rate <= 0. then invalid_arg "Trace.generate: rate <= 0";
  (* Four diurnal cycles over the trace's expected horizon. *)
  let period = float_of_int (max 1 arrivals) /. rate /. 4. in
  let hotspot = hotspot_core mesh in
  let burst_left = ref 0 in
  let t = ref 0. in
  let events = ref [] in
  for i = 0 to arrivals - 1 do
    let dt =
      match profile with
      | Poisson | Hotspot -> exp_draw rng rate
      | Diurnal ->
          let m = 0.55 +. (0.45 *. sin (2. *. Float.pi *. !t /. period)) in
          exp_draw rng (rate *. m)
      | Burst ->
          if !burst_left > 0 then begin
            decr burst_left;
            exp_draw rng (rate *. 8.)
          end
          else if Rng.float rng < 0.15 then begin
            burst_left := 1 + Rng.range rng ~lo:1 ~hi:6;
            exp_draw rng (rate *. 8.)
          end
          else exp_draw rng rate
    in
    t := !t +. dt;
    let src, snk =
      match profile with
      | Hotspot when Rng.bool rng ->
          let a, b = Workload.random_pair rng mesh in
          if Noc.Coord.equal a hotspot then (b, hotspot) else (a, hotspot)
      | _ -> Workload.random_pair rng mesh
    in
    let comm =
      Communication.make ~id:(id_base + i) ~src ~snk
        ~rate:(Workload.draw_weight rng weight)
    in
    let life = lifetime rng in
    events :=
      { time = !t +. life; kind = Depart comm.Communication.id }
      :: { time = !t; kind = Arrive comm }
      :: !events
  done;
  sort_events !events

let persistent rng ~rate comms =
  if rate <= 0. then invalid_arg "Trace.persistent: rate <= 0";
  let t = ref 0. in
  sort_events
    (List.map
       (fun c ->
         t := !t +. exp_draw rng rate;
         { time = !t; kind = Arrive c })
       comms)

let to_string events =
  String.concat ""
    (List.map
       (fun e ->
         match e.kind with
         | Arrive c ->
             Printf.sprintf "%h a %d %d,%d %d,%d %h\n" e.time
               c.Communication.id c.src.Noc.Coord.row c.src.Noc.Coord.col
               c.snk.Noc.Coord.row c.snk.Noc.Coord.col c.rate
         | Depart id -> Printf.sprintf "%h d %d\n" e.time id)
       events)
