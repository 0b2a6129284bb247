type t = {
  src : Coord.t;
  snk : Coord.t;
  quadrant : Quadrant.t;
  drow : int;
  dcol : int;
}

let make ~src ~snk =
  {
    src;
    snk;
    quadrant = Quadrant.of_endpoints ~src ~snk;
    drow = abs (snk.Coord.row - src.Coord.row);
    dcol = abs (snk.Coord.col - src.Coord.col);
  }

let length t = t.drow + t.dcol

type dag = {
  rect : t;
  ids : int array;
  tail : int array;
  head : int array;
  steps : int array;
  out : int array;
}

(* Cores are numbered [row distance * (dcol + 1) + column distance] from
   the source; slots are laid out step by step, each step's cores by
   increasing row distance, each core's horizontal link first. A link id
   is its direction's id at the source plus fixed row and column strides
   ({!Mesh.step_id}). *)
let compile mesh t =
  if not (Mesh.in_mesh mesh t.src) then
    invalid_arg "Rect.compile: source off the mesh";
  if not (Mesh.in_mesh mesh t.snk) then
    invalid_arg "Rect.compile: sink off the mesh";
  let w = t.dcol + 1 and n = length t and cols = Mesh.cols mesh in
  let rs = Quadrant.row_step t.quadrant
  and cs = Quadrant.col_step t.quadrant in
  (* The ids of the source's horizontal and vertical links, when present. *)
  let from_src extent step =
    if extent = 0 then 0 else Mesh.step_id mesh t.src step
  in
  let h0 = from_src t.dcol (if cs > 0 then Mesh.East else Mesh.West)
  and v0 = from_src t.drow (if rs > 0 then Mesh.South else Mesh.North) in
  let nslots = (t.drow * w) + (t.dcol * (t.drow + 1)) in
  let ids = Array.make nslots 0
  and tail = Array.make nslots 0
  and head = Array.make nslots 0
  and steps = Array.make (n + 1) nslots
  and out = Array.make ((t.drow + 1) * w) nslots in
  let s = ref 0 in
  let add id o h =
    ids.(!s) <- id;
    tail.(!s) <- o;
    head.(!s) <- h;
    incr s
  in
  for k = 0 to n - 1 do
    steps.(k) <- !s;
    for dr = max 0 (k - t.dcol) to min k t.drow do
      let dc = k - dr in
      let o = (dr * w) + dc in
      out.(o) <- !s;
      if dc < t.dcol then
        add (h0 + (dr * rs * (cols - 1)) + (dc * cs)) o (o + 1);
      if dr < t.drow then add (v0 + (dr * rs * cols) + (dc * cs)) o (o + w)
    done
  done;
  { rect = t; ids; tail; head; steps; out }

let out_degree d o =
  let w = d.rect.dcol + 1 in
  Bool.to_int (o mod w < d.rect.dcol) + Bool.to_int (o / w < d.rect.drow)

let walk d fork =
  let slots = Array.make (length d.rect) 0 and o = ref 0 in
  for k = 0 to Array.length slots - 1 do
    let a = d.out.(!o) in
    slots.(k) <- (if out_degree d !o = 2 then fork k a else a);
    o := d.head.(slots.(k))
  done;
  slots

let path d slots =
  let w = d.rect.dcol + 1 in
  Path.make ~src:d.rect.src ~snk:d.rect.snk
    (Array.map
       (fun s -> if d.head.(s) - d.tail.(s) = w then Path.V else Path.H)
       slots)

let cheapest d ~usable ~cost =
  let n = length d.rect and sink = Array.length d.out - 1 in
  (* Per core: the cheapest cost to the sink and the first slot of that
     path ([-1] while none is known; the sink holds the slot count). *)
  let dist = Array.make (sink + 1) 0. and via = Array.make (sink + 1) (-1) in
  via.(sink) <- Array.length d.ids;
  for k = n - 1 downto 0 do
    for s = d.steps.(k) to d.steps.(k + 1) - 1 do
      let h = d.head.(s) in
      if usable s && via.(h) >= 0 then begin
        let o = d.tail.(s) and c = dist.(h) +. cost s in
        if via.(o) < 0 || not (dist.(o) <= c) then begin
          dist.(o) <- c;
          via.(o) <- s
        end
      end
    done
  done;
  if via.(0) < 0 then None
  else begin
    let slots = Array.make n 0 and o = ref 0 in
    for i = 0 to n - 1 do
      slots.(i) <- via.(!o);
      o := d.head.(slots.(i))
    done;
    Some (slots, dist.(0))
  end
