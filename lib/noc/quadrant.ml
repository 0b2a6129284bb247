type t = D1 | D2 | D3 | D4

let of_endpoints ~src ~snk =
  let open Coord in
  if src.row <= snk.row then if src.col <= snk.col then D1 else D2
  else if src.col > snk.col then D3
  else D4

let row_step = function D1 | D2 -> 1 | D3 | D4 -> -1
let col_step = function D1 | D4 -> 1 | D2 | D3 -> -1

let diag_index ~rows ~cols d (c : Coord.t) =
  match d with
  | D1 -> c.row + c.col - 1
  | D2 -> c.row + cols - c.col
  | D3 -> rows - c.row + cols - c.col + 1
  | D4 -> rows - c.row + c.col

let all = [ D1; D2; D3; D4 ]
let to_int = function D1 -> 1 | D2 -> 2 | D3 -> 3 | D4 -> 4
let equal a b = to_int a = to_int b
