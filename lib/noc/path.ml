type move = H | V
type t = { src : Coord.t; snk : Coord.t; moves : move array }

let count_moves moves =
  Array.fold_left
    (fun (h, v) m -> match m with H -> (h + 1, v) | V -> (h, v + 1))
    (0, 0) moves

let make ~src ~snk moves =
  let h, v = count_moves moves in
  let dr = abs (snk.Coord.row - src.Coord.row)
  and dc = abs (snk.Coord.col - src.Coord.col) in
  if h <> dc || v <> dr then
    invalid_arg
      (Format.asprintf "Path.make: %a->%a needs %dH/%dV, got %dH/%dV" Coord.pp
         src Coord.pp snk dc dr h v);
  { src; snk; moves }

let src t = t.src
let snk t = t.snk
let length t = Array.length t.moves
let quadrant t = Quadrant.of_endpoints ~src:t.src ~snk:t.snk

let xy ~src ~snk =
  let dr = abs (snk.Coord.row - src.Coord.row)
  and dc = abs (snk.Coord.col - src.Coord.col) in
  { src; snk; moves = Array.init (dr + dc) (fun i -> if i < dc then H else V) }

let yx ~src ~snk =
  let dr = abs (snk.Coord.row - src.Coord.row)
  and dc = abs (snk.Coord.col - src.Coord.col) in
  { src; snk; moves = Array.init (dr + dc) (fun i -> if i < dr then V else H) }

let cores t =
  let d = quadrant t in
  let rs = Quadrant.row_step d and cs = Quadrant.col_step d in
  let n = length t in
  let out = Array.make (n + 1) t.src in
  for i = 0 to n - 1 do
    let { Coord.row; col } = out.(i) in
    out.(i + 1) <-
      (match t.moves.(i) with
      | H -> Coord.make ~row ~col:(col + cs)
      | V -> Coord.make ~row:(row + rs) ~col)
  done;
  out

(* A Manhattan path stays inside the rectangle of its endpoints, so two
   corner checks cover every hop. *)
let iter_ids mesh t f =
  if not (Mesh.in_mesh mesh t.src && Mesh.in_mesh mesh t.snk) then
    invalid_arg
      (Format.asprintf "Path.iter_ids: %a->%a not in %a" Coord.pp t.src
         Coord.pp t.snk Mesh.pp mesh);
  let d = quadrant t in
  let rs = Quadrant.row_step d and cs = Quadrant.col_step d in
  let across = if cs > 0 then Mesh.East else Mesh.West
  and down = if rs > 0 then Mesh.South else Mesh.North in
  let c = ref t.src in
  Array.iter
    (fun m ->
      let { Coord.row; col } = !c in
      match m with
      | H ->
          f (Mesh.step_id mesh !c across);
          c := Coord.make ~row ~col:(col + cs)
      | V ->
          f (Mesh.step_id mesh !c down);
          c := Coord.make ~row:(row + rs) ~col)
    t.moves

let ids mesh t =
  let out = Array.make (length t) 0 and k = ref 0 in
  iter_ids mesh t (fun id ->
      out.(!k) <- id;
      incr k);
  out

let bends t =
  let n = length t in
  let b = ref 0 in
  for i = 1 to n - 1 do
    if t.moves.(i) <> t.moves.(i - 1) then incr b
  done;
  !b

let equal a b =
  Coord.equal a.src b.src && Coord.equal a.snk b.snk && a.moves = b.moves

let of_cores cs =
  let n = Array.length cs in
  if n = 0 then invalid_arg "Path.of_cores: empty";
  let src = cs.(0) and snk = cs.(n - 1) in
  let d = Quadrant.of_endpoints ~src ~snk in
  let rs = Quadrant.row_step d and cs_step = Quadrant.col_step d in
  let moves =
    Array.init (n - 1) (fun i ->
        let a = cs.(i) and b = cs.(i + 1) in
        if b.Coord.row = a.Coord.row && b.Coord.col = a.Coord.col + cs_step
        then H
        else if b.Coord.col = a.Coord.col && b.Coord.row = a.Coord.row + rs
        then V
        else
          invalid_arg
            (Format.asprintf "Path.of_cores: non-monotone hop %a->%a" Coord.pp
               a Coord.pp b))
  in
  make ~src ~snk moves

(* A two-bend path is H^a V^dr H^(dc-a) or V^b H^dc V^(dr-b); the pure XY and
   YX routes are the a = dc and b = dr cases. *)
let two_bend_all ~src ~snk =
  let dr = abs (snk.Coord.row - src.Coord.row)
  and dc = abs (snk.Coord.col - src.Coord.col) in
  if dr = 0 || dc = 0 then [ xy ~src ~snk ]
  else begin
    let hvh a =
      let moves =
        Array.init (dr + dc) (fun i ->
            if i < a then H else if i < a + dr then V else H)
      in
      { src; snk; moves }
    and vhv b =
      let moves =
        Array.init (dr + dc) (fun i ->
            if i < b then V else if i < b + dc then H else V)
      in
      { src; snk; moves }
    in
    let zs =
      List.concat
        [
          List.init (dc - 1) (fun i -> hvh (i + 1));
          List.init (dr - 1) (fun i -> vhv (i + 1));
        ]
    in
    xy ~src ~snk :: yx ~src ~snk :: zs
  end

let fold_all f acc ~src ~snk =
  let dr = abs (snk.Coord.row - src.Coord.row)
  and dc = abs (snk.Coord.col - src.Coord.col) in
  let n = dr + dc in
  let buf = Array.make n H in
  let rec go acc i h v =
    if i = n then f acc { src; snk; moves = Array.copy buf }
    else begin
      let acc =
        if h > 0 then begin
          buf.(i) <- H;
          go acc (i + 1) (h - 1) v
        end
        else acc
      in
      if v > 0 then begin
        buf.(i) <- V;
        go acc (i + 1) h (v - 1)
      end
      else acc
    end
  in
  go acc 0 dc dr

(* C(n, k) multiplicatively, the running value C(n-k+i, i) reduced by
   gcd(c, i) before the product: i / g then divides n-k+i exactly, and the
   running value never exceeds the result, so whatever fits in an int
   comes out exact and the rest is caught before it wraps. *)
let binomial n k =
  if k < 0 || n < k then invalid_arg "Path.binomial";
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let r = min k (n - k) in
  let c = ref 1 in
  for i = 1 to r do
    let g = gcd !c i in
    let m = (n - r + i) / (i / g) and c' = !c / g in
    if c' > max_int / m then
      invalid_arg (Printf.sprintf "binomial: C(%d,%d) overflows int" n k);
    c := c' * m
  done;
  !c

let count ~src ~snk =
  binomial
    (abs (snk.Coord.row - src.Coord.row) + abs (snk.Coord.col - src.Coord.col))
    (abs (snk.Coord.row - src.Coord.row))

let random ~choose ~src ~snk =
  let dr = abs (snk.Coord.row - src.Coord.row)
  and dc = abs (snk.Coord.col - src.Coord.col) in
  let n = dr + dc in
  let moves = Array.make n H in
  let h = ref dc and v = ref dr in
  for i = 0 to n - 1 do
    (* Uniform over move interleavings: pick H with probability h/(h+v). *)
    if choose (!h + !v) < !h then begin
      moves.(i) <- H;
      decr h
    end
    else begin
      moves.(i) <- V;
      decr v
    end
  done;
  { src; snk; moves }

let pp ppf t =
  let cs = cores t in
  Format.pp_print_seq
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "-")
    Coord.pp ppf (Array.to_seq cs)
