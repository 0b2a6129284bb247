type t =
  | Transpose
  | Bit_complement
  | Bit_reverse
  | Shuffle
  | Tornado
  | Neighbor

let all =
  [ Transpose; Bit_complement; Bit_reverse; Shuffle; Tornado; Neighbor ]

let name = function
  | Transpose -> "transpose"
  | Bit_complement -> "bit-complement"
  | Bit_reverse -> "bit-reverse"
  | Shuffle -> "shuffle"
  | Tornado -> "tornado"
  | Neighbor -> "neighbor"

let find s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun p -> name p = s) all

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let is_applicable t mesh =
  let p = Noc.Mesh.rows mesh and q = Noc.Mesh.cols mesh in
  match t with
  | Transpose -> p = q
  | Bit_complement | Bit_reverse | Shuffle -> is_power_of_two (p * q)
  | Tornado | Neighbor -> q >= 2

let bits_of n =
  let rec go acc m = if m <= 1 then acc else go (acc + 1) (m / 2) in
  go 0 n

let index mesh (c : Noc.Coord.t) =
  ((c.row - 1) * Noc.Mesh.cols mesh) + (c.col - 1)

let core_of_index mesh i =
  let q = Noc.Mesh.cols mesh in
  Noc.Coord.make ~row:((i / q) + 1) ~col:((i mod q) + 1)

let image t mesh (c : Noc.Coord.t) =
  let q = Noc.Mesh.cols mesh in
  match t with
  | Transpose -> Noc.Coord.make ~row:c.col ~col:c.row
  | Tornado ->
      let hop = (q + 1) / 2 in
      Noc.Coord.make ~row:c.row ~col:((c.col - 1 + hop) mod q + 1)
  | Neighbor -> Noc.Coord.make ~row:c.row ~col:((c.col mod q) + 1)
  | Bit_complement | Bit_reverse | Shuffle ->
      let n = Noc.Mesh.num_cores mesh in
      let b = bits_of n in
      let i = index mesh c in
      let j =
        match t with
        | Bit_complement -> lnot i land (n - 1)
        | Bit_reverse ->
            let r = ref 0 in
            for k = 0 to b - 1 do
              if i land (1 lsl k) <> 0 then r := !r lor (1 lsl (b - 1 - k))
            done;
            !r
        | Shuffle -> ((i lsl 1) lor (i lsr (b - 1))) land (n - 1)
        | Transpose | Tornado | Neighbor -> assert false
      in
      core_of_index mesh j

let communications t ~rate mesh =
  if rate <= 0. then invalid_arg "Patterns.communications: rate <= 0";
  if not (is_applicable t mesh) then
    invalid_arg
      (Format.asprintf "Patterns.communications: %s does not apply to %a"
         (name t) Noc.Mesh.pp mesh);
  let comms = ref [] and id = ref 0 in
  Array.iter
    (fun src ->
      let snk = image t mesh src in
      if not (Noc.Coord.equal src snk) then begin
        comms := Communication.make ~id:!id ~src ~snk ~rate :: !comms;
        incr id
      end)
    (Noc.Mesh.all_cores mesh);
  List.rev !comms

let hotspot rng mesh ~n ~hotspot ~bias ~weight =
  if bias < 0. || bias > 1. then invalid_arg "Patterns.hotspot: bias";
  if not (Noc.Mesh.in_mesh mesh hotspot) then
    invalid_arg "Patterns.hotspot: hotspot outside mesh";
  if n > 0 && Noc.Mesh.num_cores mesh < 2 then
    invalid_arg "Patterns.hotspot: fewer than two cores";
  List.init n (fun id ->
      let rate =
        if weight.Workload.w_lo = weight.Workload.w_hi then weight.Workload.w_lo
        else Rng.uniform rng ~lo:weight.Workload.w_lo ~hi:weight.Workload.w_hi
      in
      if Rng.float rng < bias then begin
        (* Toward the hotspot, from a random distinct source. *)
        let rec draw () =
          let src =
            Noc.Coord.make
              ~row:(Rng.range rng ~lo:1 ~hi:(Noc.Mesh.rows mesh))
              ~col:(Rng.range rng ~lo:1 ~hi:(Noc.Mesh.cols mesh))
          in
          if Noc.Coord.equal src hotspot then draw () else src
        in
        Communication.make ~id ~src:(draw ()) ~snk:hotspot ~rate
      end
      else begin
        let src, snk = Workload.random_pair rng mesh in
        Communication.make ~id ~src ~snk ~rate
      end)
