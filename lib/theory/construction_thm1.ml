let loads ~p' ~total =
  if p' < 1 then invalid_arg "Construction_thm1.loads: p' < 1";
  let p = 2 * p' in
  let mesh = Noc.Mesh.square p in
  let loads = Noc.Load.create mesh in
  let core row col = Noc.Coord.make ~row ~col in
  let add_right u v w =
    Noc.Load.add loads (Noc.Mesh.step_id mesh (core u v) Noc.Mesh.East) w
  and add_down u v w =
    Noc.Load.add loads (Noc.Mesh.step_id mesh (core u v) Noc.Mesh.South) w
  in
  (* First half of the chip. Odd diagonals D_(2k+1) (k = 0..p'-1): each of
     the k+1 cores C(j, 2k+2-j) sends h_(k+1) = K/(k+1) rightward. *)
  for k = 0 to p' - 1 do
    let h = total /. float_of_int (k + 1) in
    for j = 1 to k + 1 do
      add_right j ((2 * k) + 2 - j) h
    done
  done;
  (* Even diagonals D_(2k) (k = 1..p'-1): core C(j, 2k+1-j) splits h_k into
     r_kj rightward and d_kj downward. *)
  for k = 1 to p' - 1 do
    let denom = float_of_int (k * (k + 1)) in
    for j = 1 to k do
      let r = float_of_int (k + 1 - j) *. total /. denom
      and d = float_of_int j *. total /. denom in
      add_right j ((2 * k) + 1 - j) r;
      add_down j ((2 * k) + 1 - j) d
    done
  done;
  (* Second half: mirror across the main anti-diagonal,
     sigma (u,v) = (p+1-v, p+1-u), which fixes D_p pointwise and maps a
     forward link (a -> b) to the forward link (sigma b -> sigma a). *)
  let mirrored = Noc.Load.create mesh in
  Noc.Load.iter
    (fun id w ->
      if w > 0. then begin
        let l = Noc.Mesh.link_of_id mesh id in
        let sigma (c : Noc.Coord.t) =
          Noc.Coord.make ~row:(p + 1 - c.col) ~col:(p + 1 - c.row)
        in
        Noc.Load.add mirrored
          (Noc.Mesh.link_id mesh
             (Noc.Mesh.link ~src:(sigma l.dst) ~dst:(sigma l.src)))
          w
      end)
    loads;
  Noc.Load.iter (fun id w -> if w > 0. then Noc.Load.add loads id w) mirrored;
  loads

let power model ~p' ~total =
  let r = Routing.Evaluate.of_loads model (loads ~p' ~total) in
  r.Routing.Evaluate.total_power

let xy_power model ~p' ~total =
  let hops = (2 * (2 * p')) - 2 in
  float_of_int hops *. Power.Model.link_power_exn model total

let ratio model ~p' ~total = xy_power model ~p' ~total /. power model ~p' ~total
