(* Per-communication search state over the compiled step DAG of its
   bounding rectangle ({!Noc.Rect.dag}): deletion flags per slot,
   reachability per core offset, and the alive-link count per step that
   the Figure 3 spread divides by. *)

type cstate = {
  comm : Traffic.Communication.t;
  dag : Noc.Rect.dag;
  allowed : bool array;  (* per slot *)
  listed : bool array;
      (* per slot: still a deletion candidate in the user index; implies
         [allowed] *)
  alive_count : int array;  (* per step, number of allowed slots *)
  mutable single : bool;  (* every step down to one slot *)
  mutable finished : bool;  (* no more deletions wanted for this comm *)
  (* scratch reachability flags, one per core offset *)
  fwd : bool array;
  bwd : bool array;
}

let count_alive st =
  let steps = st.dag.Noc.Rect.steps in
  st.single <- true;
  for k = 0 to Array.length st.alive_count - 1 do
    let count = ref 0 in
    for s = steps.(k) to steps.(k + 1) - 1 do
      if st.allowed.(s) then incr count
    done;
    st.alive_count.(k) <- !count;
    if !count <> 1 then st.single <- false
  done

(* Recompute which allowed slots still lie on a source-to-sink path; prune
   the rest ("path cleaning"). Returns false when no path survives — the
   caller must then roll back its tentative deletion. Slots are in step
   order, so one forward and one backward sweep settle reachability. *)
let recompute st =
  let { Noc.Rect.tail; head; _ } = st.dag in
  let nslots = Array.length tail and sink = Array.length st.fwd - 1 in
  (* Two sweeps plus the prune pass touch every slot of the rectangle:
     account them in one addition instead of three per-slot bumps. *)
  let m = Metrics.current () in
  m.Metrics.dp_cells <- m.Metrics.dp_cells + nslots;
  Array.fill st.fwd 0 (sink + 1) false;
  Array.fill st.bwd 0 (sink + 1) false;
  st.fwd.(0) <- true;
  for s = 0 to nslots - 1 do
    if st.allowed.(s) && st.fwd.(tail.(s)) then st.fwd.(head.(s)) <- true
  done;
  if not st.fwd.(sink) then false
  else begin
    st.bwd.(sink) <- true;
    for s = nslots - 1 downto 0 do
      if st.allowed.(s) && st.bwd.(head.(s)) then st.bwd.(tail.(s)) <- true
    done;
    for s = 0 to nslots - 1 do
      st.allowed.(s) <-
        st.allowed.(s) && st.fwd.(tail.(s)) && st.bwd.(head.(s))
    done;
    count_alive st;
    true
  end

(* Fault-aware state: prune slots lying on no surviving Manhattan path. If
   the fault cut every Manhattan path of the rectangle, fall back to the
   full rectangle — the repair pass will detour this communication. *)
let make_state ?fault mesh comm =
  let dag = Noc.Rect.compile mesh (Traffic.Communication.rect comm) in
  let usable id =
    match fault with None -> true | Some f -> Noc.Fault.usable_id f id
  in
  let ncores = Array.length dag.Noc.Rect.out in
  let st =
    {
      comm;
      dag;
      allowed = Array.map usable dag.Noc.Rect.ids;
      listed = Array.make (Array.length dag.Noc.Rect.ids) false;
      alive_count = Array.make (Noc.Rect.length dag.rect) 0;
      single = true;
      finished = false;
      fwd = Array.make ncores false;
      bwd = Array.make ncores false;
    }
  in
  count_alive st;
  if Option.is_some fault && not (recompute st) then begin
    Array.fill st.allowed 0 (Array.length st.allowed) true;
    count_alive st
  end;
  st

let spread loads st sign =
  let rate = st.comm.Traffic.Communication.rate in
  let { Noc.Rect.ids; steps; _ } = st.dag in
  Array.iteri
    (fun k alive ->
      let share = sign *. rate /. float_of_int alive in
      for s = steps.(k) to steps.(k + 1) - 1 do
        if st.allowed.(s) then Noc.Load.add loads ids.(s) share
      done)
    st.alive_count

(* Number of surviving paths of a communication, saturating at [cap]:
   path counts per core offset, pushed forward slot by slot. *)
let path_count ?(cap = 1_000_000) st =
  let { Noc.Rect.tail; head; _ } = st.dag in
  let cnt = Array.make (Array.length st.fwd) 0 in
  cnt.(0) <- 1;
  Array.iteri
    (fun s ok ->
      if ok then cnt.(head.(s)) <- min cap (cnt.(head.(s)) + cnt.(tail.(s))))
    st.allowed;
  cnt.(Array.length cnt - 1)

(* Enumerate the surviving paths, depth first (horizontal slot first), at
   most [limit] of them. *)
let surviving_paths ~limit st =
  let d = st.dag in
  let n = Array.length st.alive_count in
  let chain = Array.make n 0 in
  let results = ref [] and count = ref 0 in
  let rec dfs k o =
    if k = n then begin
      incr count;
      let m = Metrics.current () in
      m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
      results := Noc.Rect.path d chain :: !results
    end
    else
      for s = d.out.(o) to d.out.(o) + Noc.Rect.out_degree d o - 1 do
        if st.allowed.(s) && !count < limit then begin
          chain.(k) <- s;
          dfs (k + 1) d.head.(s)
        end
      done
  in
  dfs 0 0;
  List.rev !results

(* Delete a listed slot from its communication: respread over the
   survivors when a path remains, else restore the slot. Either way the
   slot leaves the user index, and so does every slot the path cleaning
   killed. *)
let try_remove loads st s =
  spread loads st (-1.);
  st.allowed.(s) <- false;
  if recompute st then begin
    spread loads st 1.;
    Array.iteri (fun i ok -> if not ok then st.listed.(i) <- false) st.allowed;
    true
  end
  else begin
    (* A failed recompute bails out before pruning, so restoring the
       one flag restores the exact previous alive set. Allowed sets
       only ever shrink, so this deletion can never succeed later:
       drop the slot from the candidacy index for good. *)
    st.allowed.(s) <- true;
    spread loads st 1.;
    st.listed.(s) <- false;
    false
  end

(* Cheapest surviving path by current loads (unique when finalized).
   Planned effective occupancy (load + rate) / phi; every path of the
   rectangle has the same hop count, so without a fault the added rate
   shifts all candidates equally and the extraction is unchanged. Dead
   links carry a huge *finite* penalty, not infinity: when the fault cut
   every Manhattan path of the rectangle (the all-allowed fallback of
   [make_state]), the search must still chain through — it then
   picks the path with the fewest dead crossings and the repair pass
   detours them. Every allowed slot lies on a surviving path, so each is
   scored once. *)
let extract_path loads st =
  let rate = st.comm.Traffic.Communication.rate and d = st.dag in
  let m = Metrics.current () in
  m.Metrics.dp_cells <-
    m.Metrics.dp_cells + Array.fold_left ( + ) 0 st.alive_count;
  m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
  match
    Noc.Rect.cheapest d
      ~usable:(fun s -> st.allowed.(s))
      ~cost:(fun s -> Delta.occupancy loads ~dead:1e15 ~rate d.ids.(s))
  with
  | Some (slots, _) -> Noc.Rect.path d slots
  | None -> assert false

(* Per-link user index, flat: the entries [first.(id) .. first.(id+1) - 1]
   of [owner] and [slot] are the communications whose rectangle allowed
   link [id] after pruning, in deletion-preference order, each with its
   slot for that link. Entries are never removed, only unlisted. *)
type users = { first : int array; owner : int array; slot : int array }

let index_users nlinks states order =
  let first = Array.make (nlinks + 1) 0 in
  let iter_allowed f st =
    Array.iteri (fun s ok -> if ok then f st.dag.Noc.Rect.ids.(s) s) st.allowed
  in
  Array.iter
    (iter_allowed (fun id _ -> first.(id + 1) <- first.(id + 1) + 1))
    states;
  for id = 0 to nlinks - 1 do
    first.(id + 1) <- first.(id + 1) + first.(id)
  done;
  let next = Array.sub first 0 nlinks in
  let total = first.(nlinks) in
  let owner = Array.make total 0 and slot = Array.make total 0 in
  Array.iter
    (fun idx ->
      let st = states.(idx) in
      iter_allowed
        (fun id s ->
          let e = next.(id) in
          owner.(e) <- idx;
          slot.(e) <- s;
          next.(id) <- e + 1;
          st.listed.(s) <- true)
        st)
    order;
  { first; owner; slot }

(* Core PR loop, parameterized by the per-communication stopping rule:
   keep deleting links from the hottest down until [finished] holds for
   every communication. *)
let solve ~finished ?fault mesh comms =
  let loads = Noc.Load.create ?fault mesh in
  let states =
    Array.of_list (List.map (make_state ?fault mesh) comms)
  in
  Array.iter
    (fun st ->
      st.finished <- finished st;
      spread loads st 1.)
    states;
  let order = Array.init (Array.length states) Fun.id in
  Array.sort
    (fun a b ->
      Float.compare states.(b).comm.Traffic.Communication.rate
        states.(a).comm.Traffic.Communication.rate)
    order;
  let users = index_users (Noc.Mesh.num_links mesh) states order in
  (* An entry still wanting its link deleted. *)
  let open_entry e =
    let st = states.(users.owner.(e)) in
    st.listed.(users.slot.(e)) && not st.finished
  in
  let rec wanted e stop = e < stop && (open_entry e || wanted (e + 1) stop) in
  let remaining = ref 0 in
  Array.iter (fun st -> if not st.finished then incr remaining) states;
  let rec loop () =
    if !remaining > 0 then
      match
        Noc.Load.hottest loads (fun id ->
            wanted users.first.(id) users.first.(id + 1))
      with
      | None -> () (* unreachable in theory; defensive stop *)
      | Some id ->
          (* The largest communication that can give the link up. *)
          let rec remove e stop =
            if e < stop then
              let st = states.(users.owner.(e)) in
              if open_entry e && try_remove loads st users.slot.(e) then begin
                st.finished <- finished st;
                if st.finished then decr remaining
              end
              else remove (e + 1) stop
          in
          remove users.first.(id) users.first.(id + 1);
          loop ()
  in
  loop ();
  (loads, states)

let route ?fault mesh comms =
  let loads, states =
    solve ~finished:(fun st -> st.single) ?fault mesh comms
  in
  Solution.make mesh
    (Array.to_list
       (Array.map
          (fun st -> Solution.route_single st.comm (extract_path loads st))
          states))

let route_multipath ~s ?fault mesh comms =
  if s < 1 then invalid_arg "Path_remover.route_multipath: s < 1";
  let finished st = st.single || path_count ~cap:(s + 1) st <= s in
  let _loads, states = solve ~finished ?fault mesh comms in
  Solution.make mesh
    (Array.to_list
       (Array.map
          (fun st ->
            match surviving_paths ~limit:s st with
            | [] -> assert false
            | [ p ] -> Solution.route_single st.comm p
            | paths ->
                let share =
                  st.comm.Traffic.Communication.rate
                  /. float_of_int (List.length paths)
                in
                Solution.route_multi st.comm
                  (List.map (fun p -> (p, share)) paths))
          states))
