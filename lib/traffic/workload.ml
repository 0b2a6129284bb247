type weight = { w_lo : float; w_hi : float }

let weight ~lo ~hi =
  if lo <= 0. || hi < lo || not (Float.is_finite lo && Float.is_finite hi)
  then invalid_arg (Printf.sprintf "Workload.weight: [%g, %g]" lo hi);
  { w_lo = lo; w_hi = hi }

let small = weight ~lo:100. ~hi:1500.
let mixed = weight ~lo:100. ~hi:2500.
let big = weight ~lo:2500. ~hi:3500.
let around avg = weight ~lo:(Float.max 1. (avg -. 250.)) ~hi:(avg +. 250.)

let draw_weight rng { w_lo; w_hi } =
  if w_lo = w_hi then w_lo else Rng.uniform rng ~lo:w_lo ~hi:w_hi

let random_core rng mesh =
  Noc.Coord.make
    ~row:(Rng.range rng ~lo:1 ~hi:(Noc.Mesh.rows mesh))
    ~col:(Rng.range rng ~lo:1 ~hi:(Noc.Mesh.cols mesh))

let random_pair rng mesh =
  let src = random_core rng mesh in
  let rec draw () =
    let snk = random_core rng mesh in
    if not (Noc.Coord.equal src snk) then snk
    else if Noc.Mesh.num_cores mesh < 2 then
      invalid_arg "Workload.random_pair: fewer than two cores"
    else draw ()
  in
  (src, draw ())

(* Offsets (dr, dc) with |dr| + |dc| = len; an offset fits in
   (p - |dr|) * (q - |dc|) positions. Draw the offset proportionally to its
   position count, then the source uniformly among its positions. *)
let pair_at_distance rng mesh len =
  let p = Noc.Mesh.rows mesh and q = Noc.Mesh.cols mesh in
  if len < 1 || len > p + q - 2 then None
  else begin
    let offsets = ref [] in
    for dr = -(min len (p - 1)) to min len (p - 1) do
      let rest = len - abs dr in
      if rest <= q - 1 then begin
        let count dc = (p - abs dr) * (q - abs dc) in
        if rest = 0 then offsets := (dr, 0, count 0) :: !offsets
        else begin
          offsets := (dr, rest, count rest) :: !offsets;
          offsets := (dr, -rest, count rest) :: !offsets
        end
      end
    done;
    let total = List.fold_left (fun s (_, _, c) -> s + c) 0 !offsets in
    if total = 0 then None
    else begin
      let target = Rng.int rng total in
      let rec pick acc = function
        | [] -> assert false
        | (dr, dc, c) :: rest ->
            if target < acc + c then (dr, dc) else pick (acc + c) rest
      in
      let dr, dc = pick 0 !offsets in
      let row = Rng.range rng ~lo:(max 1 (1 - dr)) ~hi:(min p (p - dr)) in
      let col = Rng.range rng ~lo:(max 1 (1 - dc)) ~hi:(min q (q - dc)) in
      Some
        ( Noc.Coord.make ~row ~col,
          Noc.Coord.make ~row:(row + dr) ~col:(col + dc) )
    end
  end

let uniform rng mesh ~n ~weight =
  List.init n (fun id ->
      let src, snk = random_pair rng mesh in
      Communication.make ~id ~src ~snk ~rate:(draw_weight rng weight))

let with_length rng mesh ~n ~weight ~target =
  let p = Noc.Mesh.rows mesh and q = Noc.Mesh.cols mesh in
  let feasible =
    List.filter
      (fun l -> l >= 1 && l <= p + q - 2)
      [ target - 1; target; target + 1 ]
  in
  if feasible = [] then
    invalid_arg (Printf.sprintf "Workload.with_length: target %d" target);
  let candidates = Array.of_list feasible in
  List.init n (fun id ->
      let len = Rng.choose rng candidates in
      match pair_at_distance rng mesh len with
      | Some (src, snk) ->
          Communication.make ~id ~src ~snk ~rate:(draw_weight rng weight)
      | None -> assert false)

let single_pair rng ~src ~snk ~n ~weight =
  List.init n (fun id ->
      Communication.make ~id ~src ~snk ~rate:(draw_weight rng weight))

let keyed_rng key comms =
  Rng.of_key key
    (List.concat_map
       (fun (c : Communication.t) ->
         [
           Int64.of_int c.id;
           Int64.of_int c.src.Noc.Coord.row;
           Int64.of_int c.src.Noc.Coord.col;
           Int64.of_int c.snk.Noc.Coord.row;
           Int64.of_int c.snk.Noc.Coord.col;
           Int64.bits_of_float c.rate;
         ])
       comms)
