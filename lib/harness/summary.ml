(* Immutable record of one instance, computed where the instance ran (any
   worker domain) and folded into an [acc] wherever convenient. *)
type obs = {
  o_cells : (string * float option) list;
      (* Inverse power per heuristic when feasible; [None] registers the
         name without counting a success. *)
  o_static : float option; (* static/total of feasible BEST *)
  o_times : (string * float) list;
  o_counters : (string * Routing.Metrics.counters) list;
      (* Per-heuristic work-counter deltas (see {!Routing.Metrics}). *)
  o_pareto : (string * Optim.Pareto.objectives) list;
      (* Per-heuristic Pareto points, when the instance was sim-scored;
         empty otherwise. *)
}

(* The accumulator RETAINS its observations (most recent first) instead of
   folding floats as they arrive: {!add} is a cons, {!merge} a
   concatenation, and every float sum happens in {!finalize}, sequentially
   in observation order. That is what makes sharded accumulate-then-merge
   bit-identical to a sequential fold — float addition is not associative,
   so summing early would tie the result to the worker count. Retention is
   also what buys exact runtime quantiles. *)
type acc = { mutable obs_rev : obs list; mutable count : int }

let create () = { obs_rev = []; count = 0 }

let observation ~pareto ~outcomes ~best ~times ~counters =
  let cell (o : Routing.Best.outcome) =
    ( o.heuristic.Routing.Heuristic.name,
      if o.report.Routing.Evaluate.feasible then
        Some (1. /. o.report.total_power)
      else None )
  in
  let best_cell, o_static =
    match best with
    | Some (o : Routing.Best.outcome) ->
        ( snd (cell o),
          if o.report.feasible && o.report.total_power > 0. then
            Some (o.report.static_power /. o.report.total_power)
          else None )
    | None -> (None, None)
  in
  {
    o_cells = List.map cell outcomes @ [ ("BEST", best_cell) ];
    o_static;
    o_times = times;
    o_counters = counters;
    o_pareto = pareto;
  }

let add acc obs =
  acc.obs_rev <- obs :: acc.obs_rev;
  acc.count <- acc.count + 1

(* [src]'s observations fold AFTER [into]'s existing ones — the documented
   merge order. Feeding per-worker accumulators shard 0, 1, ... into the
   same [into] therefore reproduces the sequential trial order exactly. *)
let merge ~into src =
  into.obs_rev <- src.obs_rev @ into.obs_rev;
  into.count <- into.count + src.count

type per_h = {
  mutable seen : int;
      (* Observations registering this name: figures may carry extra
         per-figure heuristics (figs' SMP), so a name's population can be
         a strict subset of the instances and ratios must divide by its
         own registration count. For the always-on heuristics this equals
         [acc.count] and the quotients are unchanged bit for bit. *)
  mutable succ : int;
  mutable inv_sum : float;
  mutable time_s : float;
  mutable times_rev : float list;
  mutable timed : int;
  work : Routing.Metrics.counters;
}

type t = {
  instances : int;
  success_ratio : (string * float) list;
  mean_inverse_power : (string * float) list;
  inverse_power_vs_xy : (string * float) list;
  static_fraction : float;
  mean_runtime_ms : (string * float) list;
  runtime_quantiles_ms : (string * (float * float)) list;
  counters : (string * Routing.Metrics.counters) list;
  pareto_front : Optim.Pareto.point list;
}

let order =
  [ "XY"; "SG"; "IG"; "TB"; "XYI"; "PR"; "SMP"; "PF"; "REC"; "SRV"; "SRV0"; "BEST" ]

(* Nearest-rank quantile on the retained runtimes: exact, no
   interpolation, deterministic for a fixed observation order. *)
let quantile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let quantiles values =
  if Array.length values = 0 then (0., 0.)
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    (quantile sorted 0.5, quantile sorted 0.95)
  end

let finalize (acc : acc) =
  let table : (string, per_h) Hashtbl.t = Hashtbl.create 8 in
  let entry name =
    match Hashtbl.find_opt table name with
    | Some e -> e
    | None ->
        let e =
          {
            seen = 0;
            succ = 0;
            inv_sum = 0.;
            time_s = 0.;
            times_rev = [];
            timed = 0;
            work = Routing.Metrics.zero ();
          }
        in
        Hashtbl.add table name e;
        e
  in
  let static_sum = ref 0. and static_n = ref 0 in
  let ordered = List.rev acc.obs_rev in
  List.iter
    (fun obs ->
      List.iter
        (fun (name, inv) ->
          let e = entry name in
          e.seen <- e.seen + 1;
          match inv with
          | Some v ->
              e.succ <- e.succ + 1;
              e.inv_sum <- e.inv_sum +. v
          | None -> ())
        obs.o_cells;
      (match obs.o_static with
      | Some frac ->
          static_sum := !static_sum +. frac;
          incr static_n
      | None -> ());
      List.iter
        (fun (name, s) ->
          let e = entry name in
          e.time_s <- e.time_s +. s;
          e.times_rev <- s :: e.times_rev;
          e.timed <- e.timed + 1)
        obs.o_times;
      List.iter
        (fun (name, c) -> Routing.Metrics.add ~into:(entry name).work c)
        obs.o_counters)
    ordered;
  let names = List.filter (fun name -> Hashtbl.mem table name) order in
  let per f = List.map (fun name -> (name, f (Hashtbl.find table name))) names in
  let pop e = float_of_int (max 1 e.seen) in
  let mean_inv = per (fun e -> e.inv_sum /. pop e) in
  let xy_inv =
    match List.assoc_opt "XY" mean_inv with Some v -> v | None -> 0.
  in
  {
    instances = acc.count;
    success_ratio = per (fun e -> float_of_int e.succ /. pop e);
    mean_inverse_power = mean_inv;
    inverse_power_vs_xy =
      (if xy_inv > 0. then
         List.map (fun (name, v) -> (name, v /. xy_inv)) mean_inv
       else []);
    static_fraction =
      (if !static_n = 0 then Float.nan
       else !static_sum /. float_of_int !static_n);
    mean_runtime_ms =
      List.filter_map
        (fun name ->
          let e = Hashtbl.find table name in
          if e.timed = 0 then None
          else Some (name, 1000. *. e.time_s /. float_of_int e.timed))
        names;
    runtime_quantiles_ms =
      List.filter_map
        (fun name ->
          let e = Hashtbl.find table name in
          if e.timed = 0 then None
          else begin
            let sorted = Array.of_list e.times_rev in
            Array.sort Float.compare sorted;
            Some
              ( name,
                (1000. *. quantile sorted 0.5, 1000. *. quantile sorted 0.95)
              )
          end)
        names;
    counters =
      List.filter_map
        (fun name ->
          let e = Hashtbl.find table name in
          if Routing.Metrics.is_zero e.work then None else Some (name, e.work))
        names;
    pareto_front =
      (* Points fold in observation order and {!Optim.Pareto.front}
         preserves that order, so the merged campaign front is
         jobs-invariant for the same reason every other aggregate is. *)
      Optim.Pareto.front
        (List.concat_map
           (fun obs ->
             List.map
               (fun (name, obj) ->
                 { Optim.Pareto.pt_name = name; pt_obj = obj })
               obs.o_pareto)
           ordered);
  }

let pp ppf t =
  let line ppf (name, v) = Format.fprintf ppf "%-5s %6.3f" name v in
  let block title xs =
    if xs <> [] then begin
      Format.fprintf ppf "%s:@," title;
      List.iter (fun x -> Format.fprintf ppf "  %a@," line x) xs
    end
  in
  Format.fprintf ppf "@[<v>summary over %d instances@," t.instances;
  block "success ratio" t.success_ratio;
  block "inverse power vs XY" t.inverse_power_vs_xy;
  block "mean runtime (ms)" t.mean_runtime_ms;
  if t.runtime_quantiles_ms <> [] then begin
    Format.fprintf ppf "runtime p50/p95 (ms):@,";
    List.iter
      (fun (name, (p50, p95)) ->
        Format.fprintf ppf "  %-5s %6.3f / %6.3f@," name p50 p95)
      t.runtime_quantiles_ms
  end;
  if t.counters <> [] then begin
    Format.fprintf ppf "work counters (totals):@,";
    List.iter
      (fun (name, c) ->
        Format.fprintf ppf "  %-5s %a@," name Routing.Metrics.pp c)
      t.counters
  end;
  if t.pareto_front <> [] then begin
    let n = List.length t.pareto_front in
    Format.fprintf ppf "pareto front (%d non-dominated points):@," n;
    List.iteri
      (fun i p ->
        if i < 12 then
          Format.fprintf ppf "  %a@," Optim.Pareto.pp_point p)
      t.pareto_front;
    if n > 12 then Format.fprintf ppf "  ... (%d more)@," (n - 12)
  end;
  if not (Float.is_nan t.static_fraction) then
    Format.fprintf ppf "static power fraction of BEST: %.3f (paper: ~1/7)@,"
      t.static_fraction;
  Format.fprintf ppf "@]"
