type t = { mesh : Mesh.t; factor : float array }

let healthy mesh = { mesh; factor = Array.make (Mesh.num_links mesh) 1. }
let mesh t = t.mesh
let factor t id = t.factor.(id)
let factor_link t l = t.factor.(Mesh.link_id t.mesh l)
let usable_id t id = t.factor.(id) > 0.
let usable t l = usable_id t (Mesh.link_id t.mesh l)
let is_trivial t = Array.for_all (fun f -> f = 1.) t.factor

let reverse (l : Mesh.link) = Mesh.link ~src:l.Mesh.dst ~dst:l.Mesh.src

(* Physical faults hit the wire, not a direction: every builder below acts
   on both directed links of each edge, which the [*_ids] iterators hand
   out one after the other. *)
let set_ids t ids f =
  let factor = Array.copy t.factor in
  ids (fun id -> factor.(id) <- f);
  { t with factor }

let edge_ids mesh l f =
  f (Mesh.link_id mesh l);
  f (Mesh.link_id mesh (reverse l))

let set_edge t l f = set_ids t (edge_ids t.mesh l) f

let kill_link t l = set_edge t l 0.

let degrade_link t l f =
  (* NaN slips through the usual range check (both comparisons are false)
     and would silently poison every capacity product downstream. *)
  if Float.is_nan f || f < 0. || f > 1. then
    invalid_arg (Printf.sprintf "Fault.degrade_link: factor %g" f);
  set_edge t l f

let check_router mesh core =
  if not (Mesh.in_mesh mesh core) then
    invalid_arg (Format.asprintf "Fault.kill_router: %a" Coord.pp core)

(* Every edge incident to an in-mesh router. *)
let router_ids mesh core f =
  Mesh.iter_neighbors mesh core (fun _ out into ->
      f out;
      f into)

(* [router_ids] of every router of the rectangle spanned by two corners,
   clipped to the mesh: links between two inside routers come twice. *)
let region_ids mesh ~(a : Coord.t) ~(b : Coord.t) f =
  for row = max 1 (min a.row b.row) to min (Mesh.rows mesh) (max a.row b.row) do
    for col = max 1 (min a.col b.col) to min (Mesh.cols mesh) (max a.col b.col) do
      router_ids mesh (Coord.make ~row ~col) f
    done
  done

let kill_router t core =
  check_router t.mesh core;
  set_ids t (router_ids t.mesh core) 0.

let kill_region t ~a ~b = set_ids t (region_ids t.mesh ~a ~b) 0.

let dead_links t =
  let out = ref [] in
  Mesh.iter_links t.mesh (fun id l -> if t.factor.(id) = 0. then out := l :: !out);
  List.rev !out

let degraded_links t =
  let out = ref [] in
  Mesh.iter_links t.mesh (fun id l ->
      if t.factor.(id) > 0. && t.factor.(id) < 1. then
        out := (l, t.factor.(id)) :: !out);
  List.rev !out

(* Each undirected edge whose factor satisfies [keep], once, at its
   canonical (East/South) direction, in id order. *)
let edges t keep =
  let out = ref [] in
  Mesh.iter_links t.mesh (fun id l ->
      match Mesh.step_of_link l with
      | Mesh.East | Mesh.South -> if keep t.factor.(id) then out := l :: !out
      | Mesh.West | Mesh.North -> ());
  Array.of_list (List.rev !out)

let num_dead t = Array.length (edges t (fun f -> f = 0.))
let alive_edges t = edges t (fun f -> f > 0.)

(* The candidate set for a [Restore] event (the dual of [alive_edges]). *)
let broken_edges t = edges t (fun f -> f < 1.)

let path_usable t path = Array.for_all (usable_id t) (Path.ids t.mesh path)
let walk_usable t walk = Array.for_all (usable_id t) (Walk.ids t.mesh walk)

(* Connectivity of the surviving undirected graph (edges are killed in both
   directions, so reaching every core from one suffices). *)
let connected t =
  Array.for_all
    (fun p -> p >= 0)
    (Mesh.reach t.mesh ~usable:(usable_id t) ~src:(Coord.make ~row:1 ~col:1))

(* Fisher-Yates driven by [choose], as in {!Path.random}: deterministic for
   a deterministic chooser. *)
let shuffle_with choose a =
  for i = Array.length a - 1 downto 1 do
    let j = choose (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let random_dead ~choose ~kills mesh =
  let t = ref (healthy mesh) in
  (try
     for _ = 1 to kills do
       let candidates = alive_edges !t in
       shuffle_with choose candidates;
       let killed =
         Array.exists
           (fun l ->
             let t' = kill_link !t l in
             if connected t' then begin
               t := t';
               true
             end
             else false)
           candidates
       in
       if not killed then raise Exit
     done
   with Exit -> ());
  !t

let degrade_factors = [| 0.25; 0.5; 0.75 |]

let random_degraded ~choose ~n mesh =
  let t = ref (healthy mesh) in
  let edges = alive_edges !t in
  shuffle_with choose edges;
  let n = min n (Array.length edges) in
  for i = 0 to n - 1 do
    t :=
      degrade_link !t edges.(i)
        degrade_factors.(choose (Array.length degrade_factors))
  done;
  !t

let pp ppf t =
  let dead = num_dead t and deg = List.length (degraded_links t) in
  if dead = 0 && deg = 0 then Format.fprintf ppf "no faults on %a" Mesh.pp t.mesh
  else
    Format.fprintf ppf "%d dead edges, %d degraded links on %a" dead deg
      Mesh.pp t.mesh

type fault = t

module Schedule = struct
  type event =
    | Kill_link of Mesh.link
    | Degrade_link of Mesh.link * float
    | Kill_router of Coord.t
    | Kill_region of { a : Coord.t; b : Coord.t }
    | Restore of Mesh.link

  type t = { mesh : Mesh.t; events : event array }

  let make mesh events = { mesh; events = Array.of_list events }
  let mesh t = t.mesh
  let events t = Array.to_list t.events
  let length t = Array.length t.events

  let apply fault event =
    match event with
    | Kill_link l -> kill_link fault l
    | Degrade_link (l, f) -> degrade_link fault l f
    | Kill_router c -> kill_router fault c
    | Kill_region { a; b } -> kill_region fault ~a ~b
    | Restore l -> set_edge fault l 1.

  let final ?init t =
    let f0 = match init with Some f -> f | None -> healthy t.mesh in
    Array.fold_left apply f0 t.events

  let play ?init t =
    let f0 = match init with Some f -> f | None -> healthy t.mesh in
    let cur = ref f0 and acc = ref [] in
    Array.iter
      (fun e ->
        cur := apply !cur e;
        acc := !cur :: !acc)
      t.events;
    List.rev !acc

  let touched mesh event =
    let acc = ref [] in
    let add id = acc := id :: !acc in
    (match event with
    | Kill_link l | Degrade_link (l, _) | Restore l -> edge_ids mesh l add
    | Kill_router c ->
        check_router mesh c;
        router_ids mesh c add
    | Kill_region { a; b } -> region_ids mesh ~a ~b add);
    List.rev !acc

  let random ?init ~choose ~events:n mesh =
    if n < 0 then invalid_arg "Fault.Schedule.random: negative events";
    let fault =
      ref (match init with Some f -> f | None -> healthy mesh)
    in
    let evs = ref [] in
    let pick a = a.(choose (Array.length a)) in
    for _ = 1 to n do
      let alive = alive_edges !fault in
      let broken = broken_edges !fault in
      (* One draw per event keeps the chooser call pattern uniform, so the
         generated prefix is independent of how long the schedule is. *)
      let k = choose 20 in
      let event =
        if Array.length alive = 0 && Array.length broken = 0 then
          (* Degenerate link-less mesh: only router events are expressible. *)
          Kill_router (pick (Mesh.all_cores mesh))
        else if Array.length alive = 0 then Restore (pick broken)
        else if k < 9 then Kill_link (pick alive)
        else if k < 14 then Degrade_link (pick alive, pick degrade_factors)
        else if k < 15 then Kill_router (pick (Mesh.all_cores mesh))
        else if k < 16 then begin
          let a = pick (Mesh.all_cores mesh) in
          let clip v hi = max 1 (min hi v) in
          let b =
            Coord.make
              ~row:(clip (a.Coord.row + choose 2) (Mesh.rows mesh))
              ~col:(clip (a.Coord.col + choose 2) (Mesh.cols mesh))
          in
          Kill_region { a; b }
        end
        else if Array.length broken = 0 then Kill_link (pick alive)
        else Restore (pick broken)
      in
      fault := apply !fault event;
      evs := event :: !evs
    done;
    { mesh; events = Array.of_list (List.rev !evs) }

  let pp_event ppf = function
    | Kill_link l -> Format.fprintf ppf "kill %a" Mesh.pp_link l
    | Degrade_link (l, f) ->
        Format.fprintf ppf "degrade %a to %g" Mesh.pp_link l f
    | Kill_router c -> Format.fprintf ppf "kill router %a" Coord.pp c
    | Kill_region { a; b } ->
        Format.fprintf ppf "kill region %a..%a" Coord.pp a Coord.pp b
    | Restore l -> Format.fprintf ppf "restore %a" Mesh.pp_link l
end
