type t = { rows : int; cols : int }
type link = { src : Coord.t; dst : Coord.t }
type step = East | West | South | North

let create ~rows ~cols =
  if rows < 1 || cols < 1 then
    invalid_arg (Printf.sprintf "Mesh.create: %dx%d" rows cols);
  { rows; cols }

let square p = create ~rows:p ~cols:p
let rows t = t.rows
let cols t = t.cols
let num_cores t = t.rows * t.cols
let num_links t = 2 * ((t.rows * (t.cols - 1)) + ((t.rows - 1) * t.cols))

let in_mesh t (c : Coord.t) =
  c.row >= 1 && c.row <= t.rows && c.col >= 1 && c.col <= t.cols

let step_of_link { src; dst } =
  match (dst.Coord.row - src.Coord.row, dst.Coord.col - src.Coord.col) with
  | 0, 1 -> East
  | 0, -1 -> West
  | 1, 0 -> South
  | -1, 0 -> North
  | _ ->
      invalid_arg
        (Format.asprintf "Mesh.step_of_link: %a->%a" Coord.pp src Coord.pp dst)

let link_exists t l =
  in_mesh t l.src && in_mesh t l.dst
  && Coord.manhattan l.src l.dst = 1

(* Identifier layout: the four direction families are stored contiguously,
   East then West then South then North, each family in row-major order of
   its source core. *)
let east_count t = t.rows * (t.cols - 1)
let south_count t = (t.rows - 1) * t.cols

let link_id t l =
  if not (link_exists t l) then
    invalid_arg
      (Format.asprintf "Mesh.link_id: %a->%a not in %dx%d mesh" Coord.pp l.src
         Coord.pp l.dst t.rows t.cols);
  let { Coord.row = u; col = v } = l.src in
  match step_of_link l with
  | East -> ((u - 1) * (t.cols - 1)) + (v - 1)
  | West -> east_count t + ((u - 1) * (t.cols - 1)) + (v - 2)
  | South -> (2 * east_count t) + ((u - 1) * t.cols) + (v - 1)
  | North -> (2 * east_count t) + south_count t + ((u - 2) * t.cols) + (v - 1)

let link ~src ~dst = { src; dst }

let link_of_id t id =
  if id < 0 || id >= num_links t then
    invalid_arg (Printf.sprintf "Mesh.link_of_id: %d" id);
  let ec = east_count t and sc = south_count t in
  if id < ec then
    let u = (id / (t.cols - 1)) + 1 and v = (id mod (t.cols - 1)) + 1 in
    { src = Coord.make ~row:u ~col:v; dst = Coord.make ~row:u ~col:(v + 1) }
  else if id < 2 * ec then
    let id = id - ec in
    let u = (id / (t.cols - 1)) + 1 and v = (id mod (t.cols - 1)) + 2 in
    { src = Coord.make ~row:u ~col:v; dst = Coord.make ~row:u ~col:(v - 1) }
  else if id < (2 * ec) + sc then
    let id = id - (2 * ec) in
    let u = (id / t.cols) + 1 and v = (id mod t.cols) + 1 in
    { src = Coord.make ~row:u ~col:v; dst = Coord.make ~row:(u + 1) ~col:v }
  else
    let id = id - (2 * ec) - sc in
    let u = (id / t.cols) + 2 and v = (id mod t.cols) + 1 in
    { src = Coord.make ~row:u ~col:v; dst = Coord.make ~row:(u - 1) ~col:v }

let move t (c : Coord.t) step =
  let dst =
    match step with
    | East -> Coord.make ~row:c.row ~col:(c.col + 1)
    | West -> Coord.make ~row:c.row ~col:(c.col - 1)
    | South -> Coord.make ~row:(c.row + 1) ~col:c.col
    | North -> Coord.make ~row:(c.row - 1) ~col:c.col
  in
  if in_mesh t dst then Some dst else None

let neighbors t c =
  List.filter_map (move t c) [ East; West; South; North ]

let iter_links t f =
  for id = 0 to num_links t - 1 do
    f id (link_of_id t id)
  done

let all_cores t =
  Array.init (num_cores t) (fun i ->
      Coord.make ~row:((i / t.cols) + 1) ~col:((i mod t.cols) + 1))

let is_horizontal l =
  match step_of_link l with East | West -> true | South | North -> false

let pp ppf t = Format.fprintf ppf "%dx%d mesh" t.rows t.cols
let pp_link ppf l = Format.fprintf ppf "%a->%a" Coord.pp l.src Coord.pp l.dst
