(* Flow-guided s-MP routing (see smp.mli for the pipeline overview). *)

(* Path-strip the fractional flow of one communication: repeatedly walk
   src -> snk following the widest residual out-slot (horizontal first on
   ties) and peel off the bottleneck. Flow conservation guarantees the
   walk reaches the sink while the residual source outflow is positive; at
   most [max_paths] strips, each zeroing at least one link. *)
let decompose ~max_paths (fl : Frank_wolfe.flow) =
  let d = fl.Frank_wolfe.dag in
  let residual = Array.copy fl.Frank_wolfe.shares in
  let eps = 1e-7 *. fl.Frank_wolfe.comm.Traffic.Communication.rate in
  let widest _ a = if residual.(a + 1) > residual.(a) then a + 1 else a in
  let out = ref [] in
  (try
     for _ = 1 to max_paths do
       let slots = Noc.Rect.walk d widest in
       let bottleneck =
         Array.fold_left (fun m s -> Float.min m residual.(s)) infinity slots
       in
       if bottleneck <= eps then raise Exit;
       Array.iter (fun s -> residual.(s) <- residual.(s) -. bottleneck) slots;
       out := (Noc.Rect.path d slots, bottleneck) :: !out
     done
   with Exit -> ());
  let paths = List.rev !out in
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.paths_scored <-
    m.Routing.Metrics.paths_scored + List.length paths;
  paths

(* One communication's split under optimization. [pool] is empty exactly
   when the communication is frozen on its repaired single-path route (a
   detour walk, which share-shifting cannot touch). *)
type slot = {
  comm : Traffic.Communication.t;
  base : Routing.Solution.route;
  pool : Noc.Path.t array;
  shares : float array;
  mutable active : int;
}

let dedup_paths paths =
  List.fold_left
    (fun acc p -> if List.exists (Noc.Path.equal p) acc then acc else p :: acc)
    [] paths
  |> List.rev

(* Round the stripped paths onto the [s] heaviest: shares proportional to
   the stripped weights, the heaviest absorbing the rescaling residue so
   the split sums to the rate within {!Routing.Solution.route_parts}'s
   tolerance. *)
let initial_shares ~s ~rate weighted =
  let top =
    List.filteri (fun i _ -> i < s)
      (List.stable_sort (fun (_, w1) (_, w2) -> Float.compare w2 w1) weighted)
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. top in
  let scaled = List.map (fun (p, w) -> (p, rate *. (w /. total))) top in
  let sum = List.fold_left (fun acc (_, x) -> acc +. x) 0. scaled in
  match scaled with
  | (p0, x0) :: rest -> (p0, x0 +. (rate -. sum)) :: rest
  | [] -> []

let make_slot ~s ~max_pool ?fault (base : Routing.Solution.route)
    (fl : Frank_wolfe.flow) =
  let comm = fl.Frank_wolfe.comm in
  if base.Routing.Solution.detours <> [] then
    (* The repair pass had to leave the Manhattan rectangle: every
       rectangle path is cut, so there is nothing to split. *)
    { comm; base; pool = [||]; shares = [||]; active = 0 }
  else begin
    let usable p =
      match fault with None -> true | Some f -> Noc.Fault.path_usable f p
    in
    let stripped =
      List.filter (fun (p, _) -> usable p)
        (decompose ~max_paths:max_pool fl)
    in
    let init =
      match
        initial_shares ~s ~rate:comm.Traffic.Communication.rate stripped
      with
      | [] ->
          (* Fault cut every stripped path: start from the base route. *)
          base.Routing.Solution.paths
      | init -> init
    in
    let pool =
      Array.of_list
        (dedup_paths
           (List.map fst init
           @ List.map fst stripped
           @ List.map fst base.Routing.Solution.paths))
    in
    let shares = Array.make (Array.length pool) 0. in
    List.iter
      (fun (p, x) ->
        Array.iteri
          (fun i q -> if Noc.Path.equal p q then shares.(i) <- shares.(i) +. x)
          pool)
      init;
    let active = Array.fold_left (fun n x -> if x > 0. then n + 1 else n) 0 shares in
    { comm; base; pool; shares; active }
  end

(* Largest extra rate the path can absorb without pushing any of its links
   to a higher frequency level — the discrete-level headroom that makes a
   shift free on the receiving side. *)
let level_room model mesh loads path =
  let room = ref infinity in
  Noc.Path.iter_ids mesh path (fun id ->
      let load = Noc.Load.get loads id in
      match
        Power.Model.required_frequency_capped model
          ~factor:(Noc.Load.factor loads id) load
      with
      | Some f -> room := Float.min !room (f -. load)
      | None -> room := 0.);
  !room

(* Speculatively shift [delta] of the communication's rate from pool path
   [a] to pool path [b] and keep the move iff it lowers the total capped
   penalized power. Scored link by link through the journal: O(path
   length) {!Routing.Delta.cost} lookups, counted in [delta_evals]. *)
let attempt eng sc mesh s slot a b delta =
  let loads = Routing.Delta.loads eng in
  let sa = slot.shares.(a) in
  let eps = 1e-7 *. slot.comm.Traffic.Communication.rate in
  if sa > 0. && delta > eps then begin
    let delta = Float.min delta sa in
    let is_full = delta >= sa in
    let opens = slot.shares.(b) = 0. in
    if is_full || not (opens && slot.active >= s) then begin
      let m = Routing.Delta.mark eng in
      let diff = ref 0. in
      let shift p d =
        Noc.Path.iter_ids mesh p (fun id ->
            let before = Routing.Delta.cost sc id (Noc.Load.get loads id) in
            Routing.Delta.add eng id d;
            let after = Routing.Delta.cost sc id (Noc.Load.get loads id) in
            diff := !diff +. (after -. before))
      in
      shift slot.pool.(a) (-.delta);
      shift slot.pool.(b) delta;
      if !diff < -1e-7 then begin
        Routing.Delta.commit eng m;
        slot.shares.(a) <- (if is_full then 0. else sa -. delta);
        slot.shares.(b) <- slot.shares.(b) +. delta;
        if opens then slot.active <- slot.active + 1;
        if is_full then slot.active <- slot.active - 1;
        true
      end
      else begin
        Routing.Delta.rollback eng m;
        false
      end
    end
    else false
  end
  else false

let improve_slot eng sc model mesh s slot =
  let n = Array.length slot.pool in
  let improved = ref false in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && slot.shares.(a) > 0. then begin
        (* Re-read the donor share per candidate: an accepted candidate
           rebalances it. *)
        let full () = slot.shares.(a) in
        let try_delta d = if attempt eng sc mesh s slot a b d then improved := true in
        try_delta (full ());
        try_delta (0.5 *. full ());
        if slot.shares.(b) > 0. then begin
          let room =
            level_room model mesh (Routing.Delta.loads eng) slot.pool.(b)
          in
          if room > 0. && room < full () then try_delta room
        end
      end
    done
  done;
  !improved

let max_passes = 6

let route_of_slot slot =
  if Array.length slot.pool = 0 then slot.base
  else begin
    let parts = ref [] in
    for i = Array.length slot.pool - 1 downto 0 do
      if slot.shares.(i) > 0. then
        parts := (slot.pool.(i), slot.shares.(i)) :: !parts
    done;
    (* Absorb the float drift of the accepted shifts into the largest
       share, so the parts sum to the rate within the constructor's
       tolerance whatever the search did. *)
    let total = List.fold_left (fun acc (_, x) -> acc +. x) 0. !parts in
    let rate = slot.comm.Traffic.Communication.rate in
    let parts =
      match
        List.stable_sort (fun (_, x) (_, y) -> Float.compare y x) !parts
      with
      | (p, x) :: rest -> (p, x +. (rate -. total)) :: rest
      | [] -> assert false (* shares always sum to the positive rate *)
    in
    Routing.Solution.route_parts slot.comm ~paths:parts ~detours:[]
  end

let engine ?(iterations = 120) ~s ?fault model mesh comms =
  if s < 1 then invalid_arg "Smp.engine: s < 1";
  if comms = [] then Routing.Solution.make mesh []
  else begin
    let base = Routing.Best.baseline ?fault model mesh comms in
    (* Pair each communication with its base route, consuming first
       structural matches so duplicate communications each get their own
       route. *)
    let base_routes =
      let remaining = ref (Routing.Solution.routes base.Routing.Best.solution) in
      List.map
        (fun comm ->
          let rec take acc = function
            | [] -> invalid_arg "Smp.engine: base route missing"
            | (r : Routing.Solution.route) :: rest
              when Traffic.Communication.equal r.comm comm ->
                remaining := List.rev_append acc rest;
                r
            | r :: rest -> take (r :: acc) rest
          in
          take [] !remaining)
        comms
    in
    let _, flows = Frank_wolfe.solve_flows ~iterations model mesh comms in
    let max_pool = Int.max (2 * s) 8 in
    let slots =
      List.map2 (make_slot ~s ~max_pool ?fault) base_routes flows
    in
    let eng = Routing.Delta.create ?fault model mesh in
    List.iter
      (fun slot ->
        if Array.length slot.pool = 0 then begin
          List.iter
            (fun (p, x) -> Routing.Delta.add_path eng p x)
            slot.base.Routing.Solution.paths;
          List.iter
            (fun (w, x) -> Routing.Delta.add_walk eng w x)
            slot.base.Routing.Solution.detours
        end
        else
          Array.iteri
            (fun i x -> if x > 0. then Routing.Delta.add_path eng slot.pool.(i) x)
            slot.shares)
      slots;
    let sc = Routing.Delta.scorer_of eng in
    (* Heaviest communications first: their shifts move the most power. *)
    let order =
      List.stable_sort
        (fun s1 s2 ->
          Float.compare s2.comm.Traffic.Communication.rate
            s1.comm.Traffic.Communication.rate)
        slots
    in
    (try
       for _ = 1 to max_passes do
         let improved =
           List.fold_left
             (fun acc slot -> improve_slot eng sc model mesh s slot || acc)
             false order
         in
         if not improved then raise Exit
       done
     with Exit -> ());
    let smp = Routing.Solution.make mesh (List.map route_of_slot slots) in
    if
      Routing.Best.never_worse ?fault model ~base smp
        (Routing.Evaluate.solution ?fault model smp)
    then smp
    else base.Routing.Best.solution
  end

let heuristic ?name ?iterations ~s () =
  if s < 1 then invalid_arg "Smp.heuristic: s < 1";
  let name = match name with Some n -> n | None -> Printf.sprintf "SMP%d" s in
  Routing.Heuristic.of_fault_aware ~name
    ~description:
      (Printf.sprintf
         "flow-guided %d-MP: Frank-Wolfe flow rounded onto <= %d paths, \
          delta-journal share search"
         s s)
    (fun ?fault model mesh comms -> engine ?iterations ~s ?fault model mesh comms)

let find name =
  Option.map
    (fun s -> heuristic ~s ())
    (Routing.Heuristic.parse_family ~prefix:"smp" ~default:4 ~min:1 name)
