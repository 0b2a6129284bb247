(* Per-communication search state. Links of the bounding rectangle are held
   in per-step slot arrays; reachability runs over flat boolean arrays
   indexed by the core's row-offset within its diagonal step, so the hot
   recompute path allocates nothing but small scratch arrays. *)

type slot = {
  id : int;  (* dense link id in the mesh *)
  src_step : int;  (* diagonal step of the link's source core *)
  src_pos : int;  (* row-offset index of the source within its step *)
  dst_pos : int;  (* row-offset index of the destination in step+1 *)
  mutable allowed : bool;
  mutable listed : bool;
      (* still a deletion candidate in the user index; implies [allowed] *)
}

type cstate = {
  comm : Traffic.Communication.t;
  steps : slot array array;  (* steps.(k) = links from diagonal k to k+1 *)
  alive_count : int array;  (* per step, number of allowed links *)
  mutable single : bool;  (* every step down to one link *)
  mutable finished : bool;  (* no more deletions wanted for this comm *)
  (* scratch reachability buffers, one flag per core of each diagonal *)
  fwd : bool array array;
  bwd : bool array array;
}

let step_width rect k =
  let drow = rect.Noc.Rect.drow and dcol = rect.Noc.Rect.dcol in
  let lo = max 0 (k - dcol) and hi = min k drow in
  if lo > hi then 0 else hi - lo + 1

let core_pos rect k (c : Noc.Coord.t) =
  let dr = abs (c.row - rect.Noc.Rect.src.Noc.Coord.row) in
  dr - max 0 (k - rect.Noc.Rect.dcol)

let make_state ?fault mesh comm =
  let rect = Traffic.Communication.rect comm in
  let n = Noc.Rect.length rect in
  let usable id =
    match fault with None -> true | Some f -> Noc.Fault.usable_id f id
  in
  let steps =
    Array.init n (fun k ->
        Array.of_list
          (List.map
             (fun (l : Noc.Mesh.link) ->
               let id = Noc.Mesh.link_id mesh l in
               {
                 id;
                 src_step = k;
                 src_pos = core_pos rect k l.src;
                 dst_pos = core_pos rect (k + 1) l.dst;
                 allowed = usable id;
                 listed = false;
               })
             (Noc.Rect.links_on_step rect k)))
  in
  let count_allowed slots =
    Array.fold_left (fun n s -> if s.allowed then n + 1 else n) 0 slots
  in
  {
    comm;
    steps;
    alive_count = Array.map count_allowed steps;
    single = Array.for_all (fun s -> count_allowed s = 1) steps;
    finished = false;
    fwd = Array.init (n + 1) (fun k -> Array.make (max 1 (step_width rect k)) false);
    bwd = Array.init (n + 1) (fun k -> Array.make (max 1 (step_width rect k)) false);
  }

(* Recompute which allowed links still lie on a source-to-sink path; prune
   the rest ("path cleaning"). Returns false when no path survives — the
   caller must then roll back its tentative deletion. *)
let recompute st =
  let n = Array.length st.steps in
  (* Two sweeps plus the prune pass touch every slot of the rectangle:
     account them in one addition instead of three per-slot bumps. *)
  let m = Metrics.current () in
  Array.iter
    (fun slots -> m.Metrics.dp_cells <- m.Metrics.dp_cells + Array.length slots)
    st.steps;
  let reset a = Array.fill a 0 (Array.length a) false in
  Array.iter reset st.fwd;
  Array.iter reset st.bwd;
  st.fwd.(0).(0) <- true;
  for k = 0 to n - 1 do
    Array.iter
      (fun s ->
        if s.allowed && st.fwd.(k).(s.src_pos) then
          st.fwd.(k + 1).(s.dst_pos) <- true)
      st.steps.(k)
  done;
  if not st.fwd.(n).(0) then false
  else begin
    st.bwd.(n).(0) <- true;
    for k = n - 1 downto 0 do
      Array.iter
        (fun s ->
          if s.allowed && st.bwd.(k + 1).(s.dst_pos) then
            st.bwd.(k).(s.src_pos) <- true)
        st.steps.(k)
    done;
    st.single <- true;
    for k = 0 to n - 1 do
      let count = ref 0 in
      Array.iter
        (fun s ->
          if s.allowed then
            if st.fwd.(k).(s.src_pos) && st.bwd.(k + 1).(s.dst_pos) then
              incr count
            else s.allowed <- false)
        st.steps.(k);
      st.alive_count.(k) <- !count;
      if !count > 1 then st.single <- false
    done;
    true
  end

(* Fault-aware state: prune slots lying on no surviving Manhattan path. If
   the fault cut every Manhattan path of the rectangle, fall back to the
   full rectangle — the repair pass will detour this communication. *)
let make_state_pruned ?fault mesh comm =
  let st = make_state ?fault mesh comm in
  (match fault with
  | None -> ()
  | Some _ ->
      if not (recompute st) then begin
        Array.iter (Array.iter (fun s -> s.allowed <- true)) st.steps;
        Array.iteri
          (fun k slots -> st.alive_count.(k) <- Array.length slots)
          st.steps;
        st.single <- Array.for_all (fun s -> Array.length s = 1) st.steps
      end);
  st

let spread loads st sign =
  let rate = st.comm.Traffic.Communication.rate in
  Array.iteri
    (fun k slots ->
      let share = sign *. rate /. float_of_int st.alive_count.(k) in
      Array.iter (fun s -> if s.allowed then Noc.Load.add loads s.id share) slots)
    st.steps

(* Number of surviving paths of a communication, saturating at [cap]. *)
let path_count ?(cap = 1_000_000) st =
  let n = Array.length st.steps in
  if n = 0 then 1
  else begin
    let rect = Traffic.Communication.rect st.comm in
    let cnt =
      Array.init (n + 1) (fun k -> Array.make (max 1 (step_width rect k)) 0)
    in
    cnt.(0).(0) <- 1;
    for k = 0 to n - 1 do
      Array.iter
        (fun s ->
          if s.allowed then
            cnt.(k + 1).(s.dst_pos) <-
              min cap (cnt.(k + 1).(s.dst_pos) + cnt.(k).(s.src_pos)))
        st.steps.(k)
    done;
    cnt.(n).(0)
  end

(* Enumerate the surviving paths, depth first, at most [limit] of them. *)
let surviving_paths ~limit mesh st =
  let n = Array.length st.steps in
  let results = ref [] and count = ref 0 in
  let rec dfs k pos acc =
    if !count >= limit then ()
    else if k = n then begin
      incr count;
      let m = Metrics.current () in
      m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
      results := Noc.Path.of_cores (Array.of_list (List.rev acc)) :: !results
    end
    else
      Array.iter
        (fun s ->
          if s.allowed && s.src_pos = pos && !count < limit then
            let dst = (Noc.Mesh.link_of_id mesh s.id).Noc.Mesh.dst in
            dfs (k + 1) s.dst_pos (dst :: acc))
        st.steps.(k)
  in
  dfs 0 0 [ st.comm.Traffic.Communication.src ];
  List.rev !results

(* Delete a listed slot from its communication: respread over the
   survivors when a path remains, else restore the slot. Either way the
   slot leaves the user index, and so does every slot the path cleaning
   killed. *)
let try_remove loads st slot =
  spread loads st (-1.);
  slot.allowed <- false;
  if recompute st then begin
    spread loads st 1.;
    Array.iter
      (Array.iter (fun s -> if not s.allowed then s.listed <- false))
      st.steps;
    true
  end
  else begin
    (* A failed recompute bails out before pruning, so restoring the
       one flag restores the exact previous alive set. Allowed sets
       only ever shrink, so this deletion can never succeed later:
       drop the slot from the candidacy index for good. *)
    slot.allowed <- true;
    spread loads st 1.;
    slot.listed <- false;
    false
  end

let extract_path loads st =
  (* Cheapest surviving path by current loads (unique when finalized). *)
  let rect = Traffic.Communication.rect st.comm in
  let n = Array.length st.steps in
  let cost = Array.init (n + 1) (fun k -> Array.make (max 1 (step_width rect k)) infinity) in
  let via : slot option array array =
    Array.init (n + 1) (fun k -> Array.make (max 1 (step_width rect k)) None)
  in
  cost.(n).(0) <- 0.;
  let relaxed = ref 0 in
  for k = n - 1 downto 0 do
    Array.iter
      (fun s ->
        if s.allowed then begin
          incr relaxed;
          (* Planned effective occupancy (load + rate) / phi; every path of
             the rectangle has the same hop count, so without a fault the
             added rate shifts all candidates equally and the extraction is
             unchanged. Dead links carry a huge *finite* penalty, not
             infinity: when the fault cut every Manhattan path of the
             rectangle (the all-allowed fallback of [make_state_pruned]),
             the DP must still chain through — it then picks the path with
             the fewest dead crossings and the repair pass detours them. *)
          let hop =
            Delta.occupancy loads ~dead:1e15
              ~rate:st.comm.Traffic.Communication.rate s.id
          in
          let c = cost.(k + 1).(s.dst_pos) +. hop in
          if c < cost.(k).(s.src_pos) then begin
            cost.(k).(s.src_pos) <- c;
            via.(k).(s.src_pos) <- Some s
          end
        end)
      st.steps.(k)
  done;
  let m = Metrics.current () in
  m.Metrics.dp_cells <- m.Metrics.dp_cells + !relaxed;
  m.Metrics.paths_scored <- m.Metrics.paths_scored + 1;
  let mesh_of_id = Noc.Load.mesh loads in
  let cores = Array.make (n + 1) st.comm.Traffic.Communication.src in
  let pos = ref 0 in
  for k = 0 to n - 1 do
    match via.(k).(!pos) with
    | Some s ->
        let link = Noc.Mesh.link_of_id mesh_of_id s.id in
        cores.(k + 1) <- link.Noc.Mesh.dst;
        pos := s.dst_pos
    | None -> assert false
  done;
  Noc.Path.of_cores cores

(* Per-link user index, flat: the entries [first.(id) .. first.(id+1) - 1]
   of [owner] and [slot] are the communications whose rectangle allowed
   link [id] after pruning, in deletion-preference order, each with its
   slot for that link. Entries are never removed, only unlisted. *)
type users = { first : int array; owner : int array; slot : slot array }

let index_users nlinks states order =
  let first = Array.make (nlinks + 1) 0 in
  let iter_allowed f st =
    Array.iter (Array.iter (fun s -> if s.allowed then f s)) st.steps
  in
  Array.iter
    (iter_allowed (fun s -> first.(s.id + 1) <- first.(s.id + 1) + 1))
    states;
  for id = 0 to nlinks - 1 do
    first.(id + 1) <- first.(id + 1) + first.(id)
  done;
  let next = Array.sub first 0 nlinks in
  let total = first.(nlinks) in
  let owner = Array.make total 0 in
  let slot =
    Array.make total
      { id = -1; src_step = 0; src_pos = 0; dst_pos = 0; allowed = false;
        listed = false }
  in
  Array.iter
    (fun idx ->
      iter_allowed
        (fun s ->
          let e = next.(s.id) in
          owner.(e) <- idx;
          slot.(e) <- s;
          next.(s.id) <- e + 1;
          s.listed <- true)
        states.(idx))
    order;
  { first; owner; slot }

(* Core PR loop, parameterized by the per-communication stopping rule:
   keep deleting links from the hottest down until [finished] holds for
   every communication. *)
let solve ~finished ?fault mesh comms =
  let loads = Noc.Load.create ?fault mesh in
  let states =
    Array.of_list (List.map (make_state_pruned ?fault mesh) comms)
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
    users.slot.(e).listed && not states.(users.owner.(e)).finished
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
            match surviving_paths ~limit:s mesh st with
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
