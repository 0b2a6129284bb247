type occupant = {
  comm : Traffic.Communication.t;
  share : float;
  fraction : float;
  power : float;
}

type link_probe = {
  link_id : int;
  link : Noc.Mesh.link;
  occupancy : float;
  factor : float;
  effective_capacity : float;
  effective_load : float;
  level : int;
  link_power : float;
  overloaded : bool;
  occupants : occupant list;
}

type comm_row = {
  comm : Traffic.Communication.t;
  links : (int * occupant) list;
  attributed : float;
  residual : float;
  convicted : int list;
}

type t = {
  model : Power.Model.t;
  mesh : Noc.Mesh.t;
  report : Evaluate.report;
  grid : link_probe array;
  comms : comm_row list;
  blame : (link_probe * occupant list) list;
  attributed_total : float;
}

(* The float [d] with [partial +. d = total] bitwise. [total -. partial]
   already rounds to within a few ulps of it, and [d -> partial +. d] is
   a monotone step function whose image steps are adjacent floats at
   this magnitude, so nudging one ulp at a time lands exactly. *)
let exact_remainder ~total ~partial =
  let d = ref (total -. partial) in
  while partial +. !d < total do
    d := Float.succ !d
  done;
  while partial +. !d > total do
    d := Float.pred !d
  done;
  !d

let fold_sum parts n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. parts.(i)
  done;
  !s

(* Nudge [parts] so a left-to-right [+.] fold lands bitwise on [total]
   (finite): the last slot takes {!exact_remainder} of the prefix. That
   alone can fall 1 ulp short when the prefix sits exactly on a rounding
   tie at the sum's scale — round-to-even then skips an odd-mantissa
   [total] whatever the remainder. When it does, the prefix itself is
   steered to a neighbouring float (off the tie) by re-deriving the
   second-to-last slot as an exact remainder against that target, and
   the last slot is retaken; candidate prefixes alternate down/up and
   widen. One neighbour always sufficed in practice; if 16 don't, the
   closest remainder is kept (1 ulp short). *)
let exact_fit ~total (parts : float array) =
  let bits = Int64.bits_of_float in
  let k = Array.length parts in
  if k > 0 && Float.is_finite total then begin
    let last_fit () =
      let partial = fold_sum parts (k - 1) in
      let d = exact_remainder ~total ~partial in
      parts.(k - 1) <- d;
      bits (partial +. d) = bits total
    in
    if (not (last_fit ())) && k >= 2 then begin
      let orig = parts.(k - 2) in
      let head = fold_sum parts (k - 2) in
      let partial0 = head +. orig in
      let ok = ref false in
      let step = ref 1 in
      while (not !ok) && !step <= 16 do
        let prefix =
          let p = ref partial0 in
          for _ = 1 to (!step + 1) / 2 do
            p := if !step mod 2 = 1 then Float.pred !p else Float.succ !p
          done;
          !p
        in
        parts.(k - 2) <- exact_remainder ~total:prefix ~partial:head;
        if bits (head +. parts.(k - 2)) = bits prefix && last_fit () then
          ok := true
        else incr step
      done;
      if not !ok then begin
        parts.(k - 2) <- orig;
        ignore (last_fit ())
      end
    end
  end

(* One classification pass, the per-link tests of
   [Evaluate.tally_of_loads], so the grid agrees with the report. *)
let grid_of_loads table loads =
  let model = Power.Model.table_model table in
  let nlev = Power.Model.table_nlevels table in
  let mesh = Noc.Load.mesh loads in
  let capacity = model.Power.Model.capacity in
  Array.init (Noc.Mesh.num_links mesh) (fun id ->
      let occupancy = Noc.Load.get loads id in
      let factor = Noc.Load.factor loads id in
      let level = Power.Model.table_classify table ~factor occupancy in
      let overloaded = level = Power.Model.overloaded_class in
      let link_power =
        if occupancy <= 0. then 0.
        else if overloaded then infinity
        else
          let dynamic =
            if nlev = 0 then Power.Model.dynamic_power model occupancy
            else Power.Model.table_dynamic table level
          in
          model.Power.Model.p_leak +. dynamic
      in
      {
        link_id = id;
        link = Noc.Mesh.link_of_id mesh id;
        occupancy;
        factor;
        effective_capacity = Noc.Load.effective_capacity loads ~capacity id;
        effective_load = Noc.Load.get_effective loads id;
        level;
        link_power;
        overloaded;
        occupants = [];
      })

(* Per-link occupant shares in first-touch (route) order. A communication
   whose parts reuse a link is merged into one occupant. *)
let occupant_shares mesh routes n =
  let acc = Array.make n [] in
  List.iter
    (fun (r : Solution.route) ->
      let comm = r.Solution.comm in
      let cid = comm.Traffic.Communication.id in
      let touch share id =
        match
          List.find_opt
            (fun (c, _) -> c.Traffic.Communication.id = cid)
            acc.(id)
        with
        | Some (_, s) -> s := !s +. share
        | None -> acc.(id) <- (comm, ref share) :: acc.(id)
      in
      List.iter
        (fun (p, w) -> Noc.Path.iter_ids mesh p (touch w))
        r.Solution.paths;
      List.iter
        (fun (w, sh) -> Noc.Walk.iter_ids mesh w (touch sh))
        r.Solution.detours)
    routes;
  Array.map List.rev acc

(* Slice a link's power across its occupants: proportional shares,
   {!exact_fit}ted so the slices sum bitwise to [link_power]. Overloaded
   links have infinite power, which cannot be sliced — their occupants
   read [0.] (the blame set, not the attribution, carries the
   conviction). *)
let attribute_link l shares =
  if shares = [] || l.occupancy <= 0. then { l with occupants = [] }
  else begin
    let finite = Float.is_finite l.link_power in
    let shares = Array.of_list shares in
    let powers =
      Array.map
        (fun (_, share) ->
          if not finite then 0.
          else
            let fraction = !share /. l.occupancy in
            fraction *. l.link_power)
        shares
    in
    if finite then exact_fit ~total:l.link_power powers;
    let occupants =
      Array.to_list
        (Array.mapi
           (fun i (comm, share) ->
             let share = !share in
             { comm; share; fraction = share /. l.occupancy; power = powers.(i) })
           shares)
    in
    { l with occupants }
  end

(* Per-communication rows. The grand total is attributed the same way as
   a link: each row proposes the plain (link-id-order) sum of its
   slices, {!exact_fit} lands the fold bitwise on the report total, and
   each row surfaces its correction (non-zero only at the tail) as
   [residual]. *)
let comm_rows (report : Evaluate.report) grid routes =
  let target =
    if report.Evaluate.feasible then report.Evaluate.total_power
    else report.Evaluate.static_power +. report.Evaluate.dynamic_power
  in
  let raw_rows =
    List.map
      (fun (r : Solution.route) ->
        let cid = r.Solution.comm.Traffic.Communication.id in
        let links = ref [] and raw = ref 0. and convicted = ref [] in
        Array.iter
          (fun l ->
            match
              List.find_opt
                (fun (o : occupant) -> o.comm.Traffic.Communication.id = cid)
                l.occupants
            with
            | None -> ()
            | Some o ->
                links := (l.link_id, o) :: !links;
                raw := !raw +. o.power;
                if l.overloaded then convicted := l.link_id :: !convicted)
          grid;
        (r.Solution.comm, List.rev !links, !raw, List.rev !convicted))
      routes
  in
  let attributed =
    Array.of_list (List.map (fun (_, _, raw, _) -> raw) raw_rows)
  in
  exact_fit ~total:target attributed;
  let rows =
    List.mapi
      (fun i (comm, links, raw, convicted) ->
        {
          comm;
          links;
          attributed = attributed.(i);
          residual = attributed.(i) -. raw;
          convicted;
        })
      raw_rows
  in
  (rows, fold_sum attributed (Array.length attributed))

let blame_of (report : Evaluate.report) grid mesh =
  List.map
    (fun (link, _) ->
      let l = grid.(Noc.Mesh.link_id mesh link) in
      (l, l.occupants))
    report.Evaluate.overloaded

let of_loads model loads =
  let table = Power.Model.table model in
  let mesh = Noc.Load.mesh loads in
  let grid = grid_of_loads table loads in
  let report =
    Evaluate.report_of_tally table mesh (Evaluate.tally_of_loads table loads)
  in
  {
    model;
    mesh;
    report;
    grid;
    comms = [];
    blame = blame_of report grid mesh;
    attributed_total = 0.;
  }

let solution ?fault model s =
  let loads = Solution.loads ?fault s in
  let table = Power.Model.table model in
  let mesh = Solution.mesh s in
  let bare = grid_of_loads table loads in
  let shares = occupant_shares mesh (Solution.routes s) (Array.length bare) in
  let grid = Array.mapi (fun id l -> attribute_link l shares.(id)) bare in
  let report =
    {
      (Evaluate.report_of_tally table mesh
         (Evaluate.tally_of_loads table loads)) with
      Evaluate.detour_hops = Solution.detour_hops s;
    }
  in
  let comms, attributed_total = comm_rows report grid (Solution.routes s) in
  {
    model;
    mesh;
    report;
    grid;
    comms;
    blame = blame_of report grid mesh;
    attributed_total;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%a" Evaluate.pp_report t.report;
  let carrying =
    List.filter (fun l -> l.occupancy > 0.) (Array.to_list t.grid)
  in
  let hottest =
    List.sort
      (fun a b ->
        let c = Float.compare b.effective_load a.effective_load in
        if c <> 0 then c else Int.compare a.link_id b.link_id)
      carrying
  in
  let rec take n = function
    | x :: r when n > 0 -> x :: take (n - 1) r
    | _ -> []
  in
  List.iter
    (fun l ->
      Format.fprintf ppf
        "@,  link %3d %a: load %g / cap %g, power %g, %d occupant%s"
        l.link_id Noc.Mesh.pp_link l.link l.occupancy l.effective_capacity
        l.link_power
        (List.length l.occupants)
        (if List.length l.occupants = 1 then "" else "s"))
    (take 5 hottest);
  List.iter
    (fun (l, occs) ->
      Format.fprintf ppf
        "@,  OVERLOADED link %3d %a: effective %g > cap %g, convicts:"
        l.link_id Noc.Mesh.pp_link l.link l.effective_load
        l.effective_capacity;
      List.iter
        (fun (o : occupant) ->
          Format.fprintf ppf " #%d(%.0f%%)" o.comm.Traffic.Communication.id
            (100. *. o.fraction))
        occs)
    t.blame;
  Format.fprintf ppf "@]"
