type t = { cores : Coord.t array }

let of_cores cores =
  let n = Array.length cores in
  if n < 2 then invalid_arg "Walk.of_cores: need at least two cores";
  for i = 0 to n - 2 do
    if Coord.manhattan cores.(i) cores.(i + 1) <> 1 then
      invalid_arg
        (Format.asprintf "Walk.of_cores: %a -> %a is not a unit step" Coord.pp
           cores.(i) Coord.pp
           cores.(i + 1))
  done;
  { cores = Array.copy cores }

let of_path path = { cores = Path.cores path }
let src t = t.cores.(0)
let snk t = t.cores.(Array.length t.cores - 1)
let length t = Array.length t.cores - 1
let cores t = Array.copy t.cores

(* A walk may leave any rectangle, so every hop is validated. *)
let hop_id mesh t i =
  Mesh.link_id mesh (Mesh.link ~src:t.cores.(i) ~dst:t.cores.(i + 1))

let ids mesh t = Array.init (length t) (hop_id mesh t)

let iter_ids mesh t f =
  for i = 0 to length t - 1 do
    f (hop_id mesh t i)
  done

let detour_hops t = length t - Coord.manhattan (src t) (snk t)

let is_manhattan t = detour_hops t = 0

let equal a b = a.cores = b.cores

let pp ppf t =
  Format.pp_print_array
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
    Coord.pp ppf t.cores
