let pp_result ppf (r : Runner.result) =
  let names = List.map fst (List.hd r.rows).Runner.cells in
  Format.fprintf ppf "@[<v>%s (%d trials/point; norm. inverse power | failure ratio)@,"
    r.figure.Figure.title r.trials;
  Format.fprintf ppf "%10s" r.figure.Figure.xlabel;
  List.iter (fun name -> Format.fprintf ppf " | %11s" name) names;
  Format.fprintf ppf "@,";
  List.iter
    (fun (row : Runner.row) ->
      Format.fprintf ppf "%10.0f" row.x;
      List.iter
        (fun (_, (s : Runner.stats)) ->
          Format.fprintf ppf " | %5.2f %5.2f" s.norm_inv_power s.failure_ratio)
        row.cells;
      Format.fprintf ppf "@,")
    r.rows;
  Format.fprintf ppf "@]"

let csv (r : Runner.result) =
  let buf = Buffer.create 1024 in
  let names = List.map fst (List.hd r.rows).Runner.cells in
  Buffer.add_string buf "x";
  List.iter
    (fun name ->
      List.iter
        (fun (suffix, _) -> Printf.bprintf buf ",%s_%s" name suffix)
        Runner.fields)
    names;
  Buffer.add_char buf '\n';
  List.iter
    (fun (row : Runner.row) ->
      Printf.bprintf buf "%g" row.x;
      List.iter
        (fun (_, s) ->
          List.iter
            (fun (_, get) ->
              match get s with
              | Checkpoint.Float f | Opt (Some f) ->
                  Printf.bprintf buf ",%.6f" f
              | Int i -> Printf.bprintf buf ",%d" i
              (* Absent values (mean power when every trial failed, the
                 engine columns of cells that never simulated or served)
                 leave the column empty rather than need a sentinel. *)
              | Opt None | Msg _ -> Buffer.add_char buf ',')
            Runner.fields)
        row.cells;
      Buffer.add_char buf '\n')
    r.rows;
  Buffer.contents buf

(* The shared chip frame: cores are [+], each inter-core gap renders
   whatever [cell a b] says about the pair of opposite links between two
   neighbouring cores, by their ids: [a] leaves the upper-left core. *)
let chip_map mesh cell =
  let p = Noc.Mesh.rows mesh and q = Noc.Mesh.cols mesh in
  let buf = Buffer.create 1024 in
  for row = 1 to p do
    (* Core row with horizontal links. *)
    for col = 1 to q do
      Buffer.add_char buf '+';
      if col < q then begin
        let u = Noc.Coord.make ~row ~col
        and v = Noc.Coord.make ~row ~col:(col + 1) in
        Buffer.add_char buf '-';
        Buffer.add_char buf
          (cell
             (Noc.Mesh.step_id mesh u Noc.Mesh.East)
             (Noc.Mesh.step_id mesh v Noc.Mesh.West));
        Buffer.add_char buf '-'
      end
    done;
    Buffer.add_char buf '\n';
    (* Vertical links to the next row. *)
    if row < p then begin
      for col = 1 to q do
        let u = Noc.Coord.make ~row ~col
        and v = Noc.Coord.make ~row:(row + 1) ~col in
        Buffer.add_char buf
          (cell
             (Noc.Mesh.step_id mesh u Noc.Mesh.South)
             (Noc.Mesh.step_id mesh v Noc.Mesh.North));
        if col < q then Buffer.add_string buf "   "
      done;
      Buffer.add_char buf '\n'
    end
  done;
  Buffer.contents buf

let heatmap ?(capacity = 3500.) loads =
  let cell a b =
    (* Busier direction of the two opposite links. *)
    let load = Float.max (Noc.Load.get loads a) (Noc.Load.get loads b) in
    if load <= 0. then '.'
    else if load > capacity +. 1e-9 then '!'
    else
      let tenth = int_of_float (ceil (9. *. load /. capacity)) in
      Char.chr (Char.code '0' + max 1 (min 9 tenth))
  in
  chip_map (Noc.Load.mesh loads) cell

let power_heatmap (p : Routing.Probe.t) =
  let mesh = p.Routing.Probe.mesh in
  (* Scaled to the hottest finite link on this chip, not to an absolute
     budget: the interesting question a power map answers is {e where}
     the power goes, and a relative scale keeps the digits spread over
     the whole range whatever the model's magnitudes are. *)
  let pmax =
    Array.fold_left
      (fun m (l : Routing.Probe.link_probe) ->
        if Float.is_finite l.link_power then Float.max m l.link_power else m)
      0. p.grid
  in
  let cell a b =
    let la = p.grid.(a) and lb = p.grid.(b) in
    if la.overloaded || lb.overloaded then '!'
    else
      let w = Float.max la.link_power lb.link_power in
      if w <= 0. || pmax <= 0. then '.'
      else
        let tenth = int_of_float (ceil (9. *. w /. pmax)) in
        Char.chr (Char.code '0' + max 1 (min 9 tenth))
  in
  chip_map mesh cell

let write_csv ~dir (r : Runner.result) =
  Audit.mkdir_p dir;
  let path = Filename.concat dir (r.figure.Figure.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (csv r);
  close_out oc;
  path
