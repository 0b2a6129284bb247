(* Incremental delta-evaluation engine. See delta.mli for the contract;
   the short version: a [t] maintains the classification state behind an
   [Evaluate.report] (per-level counts, active/overload bookkeeping, max
   effective load) under path add/remove/swap in O(path length), and
   [report] reassembles the very report a from-scratch
   [Evaluate.of_loads] would produce — bit-identical, because the full
   evaluator totals its sums in a canonical order that is a pure
   function of this state ([Evaluate.report_of_tally]). A [scorer] is
   the stateless facet the heuristic hot loops use: memoized per-link
   cost lookups and planned-occupancy reads, counted in
   [Metrics.delta_evals]. *)

let idle = Power.Model.idle_class
let over = Power.Model.overloaded_class

(* ------------------------------------------------------------------ *)
(* Counters *)

let bump () =
  let m = Metrics.current () in
  m.Metrics.delta_evals <- m.Metrics.delta_evals + 1

(* ------------------------------------------------------------------ *)
(* Scorer: memoized cost lookups for the heuristic hot paths *)

type scorer = { s_table : Power.Model.table; s_loads : Noc.Load.t }

let scorer model loads =
  let s_table =
    Metrics.with_span "delta-table" (fun () -> Power.Model.table model)
  in
  { s_table; s_loads = loads }

let scorer_loads sc = sc.s_loads

let cost_at sc ~factor load =
  bump ();
  Power.Model.table_cost sc.s_table ~factor load

let cost sc id load = cost_at sc ~factor:(Noc.Load.factor sc.s_loads id) load

let cost_link sc l load =
  cost_at sc ~factor:(Noc.Load.factor_link sc.s_loads l) load

(* Planned effective occupancy of a link if [rate] more units were routed
   over it — the SG / PR extraction scoring primitive. No cost table
   involved; routed through here so the reads are counted uniformly. *)
let occupancy loads ~dead ~rate id =
  bump ();
  let phi = Noc.Load.factor loads id in
  if phi <= 0. then dead else (Noc.Load.get loads id +. rate) /. phi

let occupancy_link loads ~dead ~rate l =
  bump ();
  let phi = Noc.Load.factor_link loads l in
  if phi <= 0. then dead else (Noc.Load.get_link loads l +. rate) /. phi

(* ------------------------------------------------------------------ *)
(* Tracked engine *)

type t = {
  model : Power.Model.t;
  table : Power.Model.table;
  cache : Evaluate.totals_cache;
  loads : Noc.Load.t;
  nlev : int;
  state : int array;  (* per link: idle / over / level class *)
  level_count : int array;
  mutable active : int;
  over_tbl : (int, unit) Hashtbl.t;
  mutable max_eff : float;
  mutable max_dirty : bool;
  (* Journal: (id, old raw load, old class) per touched link while at
     least one mark is outstanding. Old values are restored verbatim on
     rollback — float add/subtract does not invert exactly, and
     [Noc.Load.add] clamps near-zero residuals. *)
  mutable jid : int array;
  mutable jload : float array;
  mutable jstate : int array;
  mutable jlen : int;
  mutable marks : int;
  (* Per outstanding mark, the max cache at mark time: rollback restores
     the state to exactly the mark point, so the saved values are the
     right ones — no rescan needed to un-dethrone a speculative max. *)
  mutable mmax : float array;
  mutable mdirty : bool array;
}

let loads t = t.loads
let model t = t.model

let scorer_of t = { s_table = t.table; s_loads = t.loads }

let of_loads model ls =
  let table =
    Metrics.with_span "delta-table" (fun () -> Power.Model.table model)
  in
  let nlev = Power.Model.table_nlevels table in
  let n = Noc.Mesh.num_links (Noc.Load.mesh ls) in
  let state = Array.make n idle in
  let level_count = Array.make (max 1 nlev) 0 in
  let over_tbl = Hashtbl.create 8 in
  let active = ref 0 and max_eff = ref 0. in
  Noc.Load.iter
    (fun id load ->
      if load > 0. then begin
        incr active;
        let eff = Noc.Load.get_effective ls id in
        if eff > !max_eff then max_eff := eff;
        let cls =
          Power.Model.table_classify table ~factor:(Noc.Load.factor ls id) load
        in
        state.(id) <- cls;
        if cls = over then Hashtbl.replace over_tbl id ()
        else level_count.(if nlev = 0 then 0 else cls) <-
               level_count.(if nlev = 0 then 0 else cls) + 1
      end)
    ls;
  {
    model;
    table;
    cache = Evaluate.totals_cache table;
    loads = ls;
    nlev;
    state;
    level_count;
    active = !active;
    over_tbl;
    max_eff = !max_eff;
    max_dirty = false;
    jid = [||];
    jload = [||];
    jstate = [||];
    jlen = 0;
    marks = 0;
    mmax = [||];
    mdirty = [||];
  }

let create ?fault model mesh = of_loads model (Noc.Load.create ?fault mesh)

(* Bucket bookkeeping for a class transition of one link. *)
let transition t id old_cls new_cls =
  if old_cls <> new_cls then begin
    if old_cls <> idle then begin
      t.active <- t.active - 1;
      if old_cls = over then Hashtbl.remove t.over_tbl id
      else begin
        let b = if t.nlev = 0 then 0 else old_cls in
        t.level_count.(b) <- t.level_count.(b) - 1
      end
    end;
    if new_cls <> idle then begin
      t.active <- t.active + 1;
      if new_cls = over then Hashtbl.replace t.over_tbl id ()
      else begin
        let b = if t.nlev = 0 then 0 else new_cls in
        t.level_count.(b) <- t.level_count.(b) + 1
      end
    end;
    t.state.(id) <- new_cls
  end

let journal_push t id raw cls =
  if t.jlen = Array.length t.jid then begin
    let cap = max 64 (2 * t.jlen) in
    let jid = Array.make cap 0
    and jload = Array.make cap 0.
    and jstate = Array.make cap 0 in
    Array.blit t.jid 0 jid 0 t.jlen;
    Array.blit t.jload 0 jload 0 t.jlen;
    Array.blit t.jstate 0 jstate 0 t.jlen;
    t.jid <- jid;
    t.jload <- jload;
    t.jstate <- jstate
  end;
  t.jid.(t.jlen) <- id;
  t.jload.(t.jlen) <- raw;
  t.jstate.(t.jlen) <- cls;
  t.jlen <- t.jlen + 1

let add t id delta =
  let old_raw = Noc.Load.get t.loads id in
  let old_cls = t.state.(id) in
  if t.marks > 0 then journal_push t id old_raw old_cls;
  let old_eff = if old_cls = idle then 0. else Noc.Load.get_effective t.loads id in
  Noc.Load.add t.loads id delta;
  let x = Noc.Load.get t.loads id in
  let new_cls =
    Power.Model.table_classify t.table ~factor:(Noc.Load.factor t.loads id) x
  in
  transition t id old_cls new_cls;
  if not t.max_dirty then begin
    let new_eff = if x > 0. then Noc.Load.get_effective t.loads id else 0. in
    if new_eff >= t.max_eff then t.max_eff <- new_eff
    else if old_eff >= t.max_eff then t.max_dirty <- true
  end

let add_link t l delta = add t (Noc.Mesh.link_id (Noc.Load.mesh t.loads) l) delta
let add_path t path rate = Noc.Path.iter_links path (fun l -> add_link t l rate)
let remove_path t path rate = add_path t path (-.rate)
let add_walk t walk rate = Noc.Walk.iter_links walk (fun l -> add_link t l rate)
let remove_walk t walk rate = add_walk t walk (-.rate)

let add_route t (r : Solution.route) =
  List.iter (fun (p, x) -> add_path t p x) r.paths;
  List.iter (fun (w, x) -> add_walk t w x) r.detours

let remove_route t (r : Solution.route) =
  List.iter (fun (p, x) -> remove_path t p x) r.paths;
  List.iter (fun (w, x) -> remove_walk t w x) r.detours

type mark = int

let mark t =
  if t.marks = Array.length t.mmax then begin
    let cap = max 8 (2 * t.marks) in
    let mmax = Array.make cap 0. and mdirty = Array.make cap false in
    Array.blit t.mmax 0 mmax 0 t.marks;
    Array.blit t.mdirty 0 mdirty 0 t.marks;
    t.mmax <- mmax;
    t.mdirty <- mdirty
  end;
  t.mmax.(t.marks) <- t.max_eff;
  t.mdirty.(t.marks) <- t.max_dirty;
  t.marks <- t.marks + 1;
  t.jlen

let rollback t m =
  if t.marks <= 0 then invalid_arg "Delta.rollback: no outstanding mark";
  for i = t.jlen - 1 downto m do
    let id = t.jid.(i) in
    let cur = t.state.(id) in
    Noc.Load.set t.loads id t.jload.(i);
    transition t id cur t.jstate.(i)
  done;
  t.jlen <- m;
  t.marks <- t.marks - 1;
  t.max_eff <- t.mmax.(t.marks);
  t.max_dirty <- t.mdirty.(t.marks)

let commit t _m =
  if t.marks <= 0 then invalid_arg "Delta.commit: no outstanding mark";
  t.marks <- t.marks - 1;
  (* Entries must survive inner commits: an outer rollback still has to
     undo them. Only an empty mark stack lets the journal reset. *)
  if t.marks = 0 then t.jlen <- 0

let recompute_max t =
  let max_eff = ref 0. in
  Noc.Load.iter
    (fun id load ->
      if load > 0. then begin
        let eff = Noc.Load.get_effective t.loads id in
        if eff > !max_eff then max_eff := eff
      end)
    t.loads;
  t.max_eff <- !max_eff;
  t.max_dirty <- false

let report t =
  let m = Metrics.current () in
  m.Metrics.feasibility_checks <- m.Metrics.feasibility_checks + 1;
  if t.max_dirty then recompute_max t;
  let t_cont_dynamic =
    if t.nlev > 0 then 0.
    else begin
      (* Continuous models tie the dynamic term to each exact load: the
         sum is order-dependent, so reproduce the evaluator's link-id
         scan. Classification is already cached, so the scan still pays
         no comparisons — only the unavoidable per-link pow. *)
      let acc = ref 0. in
      Noc.Load.iter
        (fun id load ->
          if load > 0. && t.state.(id) <> over then
            acc := !acc +. Power.Model.dynamic_power t.model load)
        t.loads;
      !acc
    end
  in
  let t_over_rev =
    Hashtbl.fold (fun id () acc -> id :: acc) t.over_tbl []
    |> List.sort (fun a b -> Int.compare b a)
    |> List.map (fun id -> (id, Noc.Load.get_effective t.loads id))
  in
  let tally =
    {
      Evaluate.t_active = t.active;
      t_max_load = t.max_eff;
      t_level_count = t.level_count;
      t_cont_dynamic;
      t_over_rev;
    }
  in
  Evaluate.report_of_tally ~cache:t.cache t.table (Noc.Load.mesh t.loads) tally
