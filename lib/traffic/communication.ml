type t = { id : int; src : Noc.Coord.t; snk : Noc.Coord.t; rate : float }

let make ~id ~src ~snk ~rate =
  if Noc.Coord.equal src snk then
    invalid_arg
      (Format.asprintf "Communication.make: src = snk = %a" Noc.Coord.pp src);
  if rate <= 0. then invalid_arg "Communication.make: rate <= 0";
  if not (Float.is_finite rate) then
    invalid_arg "Communication.make: rate not finite";
  { id; src; snk; rate }

let length t = Noc.Coord.manhattan t.src t.snk
let quadrant t = Noc.Quadrant.of_endpoints ~src:t.src ~snk:t.snk
let rect t = Noc.Rect.make ~src:t.src ~snk:t.snk
let with_rate t ~rate = { t with rate }
let with_id t ~id = { t with id }
let total_rate l = List.fold_left (fun s c -> s +. c.rate) 0. l

let equal a b =
  a.id = b.id && Noc.Coord.equal a.src b.src && Noc.Coord.equal a.snk b.snk
  && a.rate = b.rate

let compare_id a b = Int.compare a.id b.id

type order = By_rate_desc | By_length_desc | By_rate_per_length_desc

let key order c =
  match order with
  | By_rate_desc -> c.rate
  | By_length_desc -> float_of_int (length c)
  | By_rate_per_length_desc -> c.rate /. float_of_int (length c)

let sort order l =
  List.stable_sort (fun a b -> Float.compare (key order b) (key order a)) l

let pp ppf t =
  Format.fprintf ppf "gamma%d: %a->%a @@ %g" t.id Noc.Coord.pp t.src
    Noc.Coord.pp t.snk t.rate
