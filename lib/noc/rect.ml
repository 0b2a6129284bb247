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

let contains_core t (c : Coord.t) =
  let between a b x = min a b <= x && x <= max a b in
  between t.src.Coord.row t.snk.Coord.row c.row
  && between t.src.Coord.col t.snk.Coord.col c.col

let step_of_core t (c : Coord.t) =
  abs (c.row - t.src.Coord.row) + abs (c.col - t.src.Coord.col)

let cores_on_step t k =
  let rs = Quadrant.row_step t.quadrant
  and cs = Quadrant.col_step t.quadrant in
  let lo = max 0 (k - t.dcol) and hi = min k t.drow in
  if lo > hi then []
  else
    List.init
      (hi - lo + 1)
      (fun i ->
        let dr = lo + i in
        Coord.make
          ~row:(t.src.Coord.row + (dr * rs))
          ~col:(t.src.Coord.col + ((k - dr) * cs)))

let out_links t (c : Coord.t) =
  let rs = Quadrant.row_step t.quadrant
  and cs = Quadrant.col_step t.quadrant in
  let h =
    if c.col <> t.snk.Coord.col then
      [ Mesh.link ~src:c ~dst:(Coord.make ~row:c.row ~col:(c.col + cs)) ]
    else []
  and v =
    if c.row <> t.snk.Coord.row then
      [ Mesh.link ~src:c ~dst:(Coord.make ~row:(c.row + rs) ~col:c.col) ]
    else []
  in
  h @ v

let links_on_step t k = List.concat_map (out_links t) (cores_on_step t k)

let cheapest mesh t ~usable ~cost =
  let w = t.dcol + 1 in
  let offset (c : Coord.t) =
    (abs (c.row - t.src.Coord.row) * w) + abs (c.col - t.src.Coord.col)
  in
  let n = length t and sink = offset t.snk in
  (* Per-core state, flat by the core's offset: the cheapest cost to the
     sink and the next core on that path ([-1] while none is known). *)
  let tail = Array.make (sink + 1) 0. and next = Array.make (sink + 1) (-1) in
  next.(sink) <- sink;
  for k = n - 1 downto 0 do
    List.iter
      (fun core ->
        let o = offset core in
        List.iter
          (fun (l : Mesh.link) ->
            let id = Mesh.link_id mesh l and h = offset l.dst in
            if usable id && next.(h) >= 0 then begin
              let c = tail.(h) +. cost id in
              if next.(o) < 0 || not (tail.(o) <= c) then begin
                tail.(o) <- c;
                next.(o) <- h
              end
            end)
          (out_links t core))
      (cores_on_step t k)
  done;
  if next.(0) < 0 then None
  else begin
    let moves = Array.make n Path.H and o = ref 0 in
    for i = 0 to n - 1 do
      let h = next.(!o) in
      if h - !o = w then moves.(i) <- Path.V;
      o := h
    done;
    Some (Path.make ~src:t.src ~snk:t.snk moves, tail.(0))
  end

let contains_link t (l : Mesh.link) =
  contains_core t l.src && contains_core t l.dst
  && step_of_core t l.dst = step_of_core t l.src + 1

let pp ppf t =
  Format.fprintf ppf "rect %a->%a (%a)" Coord.pp t.src Coord.pp t.snk
    Quadrant.pp t.quadrant
