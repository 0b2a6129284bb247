type event =
  | Injected of { cycle : int; comm_id : int; packet : int }
  | Delivered of { cycle : int; comm_id : int; packet : int; latency : int }
  | Escaped of { cycle : int; comm_id : int; packet : int }
  | Deadlock of { cycle : int }
  | Link_killed of { cycle : int; link : Noc.Mesh.link }

type packet = {
  id : int;
  comm_idx : int;
  mutable route : int array;
      (* link ids, source core to sink core: the injector's array until an
         escape replaces it, so never written in place *)
  injected_at : int;
  mutable escaped : bool;
}

type flit = {
  pkt : packet;
  is_head : bool;
  is_tail : bool;
  mutable stamp : int;
  mutable hop : int;  (* index in [pkt.route] of the link it is buffered at *)
}

type requester = From of int * int | Inject of int

type injector = {
  comm : Traffic.Communication.t;
  paths : (int array * float) array;  (* routes (link ids) and rate shares *)
  flit_rate : float;  (* injected flits per cycle *)
  mutable acc : float;
  mutable sent_per_path : float array;
  mutable pending : packet Queue.t;
  mutable emit_count : int;  (* flits of the head pending packet emitted *)
  mutable emit_vc : int;  (* VC allocated for the head pending packet *)
  mutable injected : int;
  mutable delivered : int;
  mutable flits_delivered : int;
  mutable escaped_done : int;
  mutable latency_sum : int;
  mutable latencies : int list;  (* measured-window tail latencies *)
}

type t = {
  config : Config.t;
  mesh : Noc.Mesh.t;
  nlinks : int;
  rate : float array;  (* flits/cycle per link *)
  credit : float array;
  queue : flit Queue.t array array;  (* queue.(l).(v): buffered at dst of l *)
  space : int array array;
  owner : int array array;  (* packet id or -1 *)
  next_alloc : (int * int) option array array;  (* (out link, out vc) *)
  wait : int array array;
  injectors : injector array;
  requesters : requester array array;  (* per output link, arbitration order *)
  rr : int array;  (* round-robin pointer per output link *)
  mutable next_packet_id : int;
  mutable cycle : int;
  mutable flits_in_flight : int;
  mutable total_injected : int;  (* whole-run flits entering the network *)
  mutable total_ejected : int;  (* whole-run flits consumed at their sink *)
  mutable last_progress : int;
  mutable measuring : bool;
  mutable measured_cycles : int;
  mutable flits_moved : int;
  link_flits : int array;  (* measured traversals per link *)
  mutable ran : bool;
  mutable observer : (event -> unit) option;
  mutable kills : (int * int) list;  (* (absolute cycle, link id) pending *)
}

let path_links mesh path =
  Array.map (Noc.Mesh.link_id mesh) (Noc.Path.links path)

let walk_links mesh walk =
  Array.map (Noc.Mesh.link_id mesh) (Noc.Walk.links walk)

(* ---------------- per-domain input tables ---------------- *)

(* A campaign sweeps many solutions over the same mesh shape; the
   input-link table is a pure function of that shape, so an arena keeps
   the last one built. Per-link buffers are allocated fresh for every
   network. *)
module Arena = struct
  type t = { mutable inputs : (int * int * int list array) option }

  let create () = { inputs = None }

  (* One arena per domain: pool workers never share one. *)
  let key = Domain.DLS.new_key create
  let domain () = Domain.DLS.get key
end

let link_rate config model load =
  let cap = model.Power.Model.capacity in
  match Power.Model.required_frequency model load with
  | Some 0. ->
      if config.Config.idle_links_min_level then
        (match model.Power.Model.mode with
        | Power.Model.Discrete levels -> levels.(0) /. cap
        | Power.Model.Continuous -> 1.)
      else 0.
  | Some f -> f /. cap
  | None -> 1. (* overloaded link: clock it flat out and let it saturate *)

let inputs_table mesh nlinks =
  Array.init nlinks (fun l ->
      let src = (Noc.Mesh.link_of_id mesh l).Noc.Mesh.src in
      List.filter_map
        (fun nb ->
          let inl = Noc.Mesh.link ~src:nb ~dst:src in
          Some (Noc.Mesh.link_id mesh inl))
        (Noc.Mesh.neighbors mesh src))

let create ?(config = Config.default) ?arena model solution =
  Config.validate config;
  let mesh = Routing.Solution.mesh solution in
  let nlinks = Noc.Mesh.num_links mesh in
  let loads = Routing.Solution.loads solution in
  let vcs = config.Config.num_vcs in
  let injectors =
    Array.of_list
      (List.map
         (fun (r : Routing.Solution.route) ->
           let total = r.comm.Traffic.Communication.rate in
           let all_routes =
             List.map
               (fun (p, share) -> (path_links mesh p, share /. total))
               r.paths
             @ List.map
                 (fun (w, share) -> (walk_links mesh w, share /. total))
                 r.detours
           in
           {
             comm = r.comm;
             paths = Array.of_list all_routes;
             flit_rate = total /. model.Power.Model.capacity;
             acc = 0.;
             sent_per_path = Array.make (List.length all_routes) 0.;
             pending = Queue.create ();
             emit_count = 0;
             emit_vc = -1;
             injected = 0;
             delivered = 0;
             flits_delivered = 0;
             escaped_done = 0;
             latency_sum = 0;
             latencies = [];
           })
         (Routing.Solution.routes solution))
  in
  let inputs_of =
    let rows = Noc.Mesh.rows mesh and cols = Noc.Mesh.cols mesh in
    match arena with
    | Some { Arena.inputs = Some (r, c, table) } when r = rows && c = cols ->
        table
    | Some a ->
        let table = inputs_table mesh nlinks in
        a.Arena.inputs <- Some (rows, cols, table);
        table
    | None -> inputs_table mesh nlinks
  in
  (* Every VC of every link into the output link's source router, then
     the injectors at that router in index order. *)
  let requesters =
    Array.init nlinks (fun l ->
        let src = (Noc.Mesh.link_of_id mesh l).Noc.Mesh.src in
        let from =
          List.concat_map
            (fun l_in -> List.init vcs (fun v -> From (l_in, v)))
            inputs_of.(l)
        in
        let inject =
          List.filter
            (fun i ->
              Noc.Coord.equal injectors.(i).comm.Traffic.Communication.src src)
            (List.init (Array.length injectors) Fun.id)
        in
        Array.of_list (from @ List.map (fun i -> Inject i) inject))
  in
  {
    config;
    mesh;
    nlinks;
    rate =
      Array.init nlinks (fun l ->
          link_rate config model (Noc.Load.get loads l));
    credit = Array.make nlinks 0.;
    queue =
      Array.init nlinks (fun _ -> Array.init vcs (fun _ -> Queue.create ()));
    space = Array.make_matrix nlinks vcs config.Config.buffer_flits;
    owner = Array.make_matrix nlinks vcs (-1);
    next_alloc = Array.make_matrix nlinks vcs None;
    wait = Array.make_matrix nlinks vcs 0;
    injectors;
    requesters;
    rr = Array.make nlinks 0;
    next_packet_id = 0;
    cycle = 0;
    flits_in_flight = 0;
    total_injected = 0;
    total_ejected = 0;
    last_progress = 0;
    measuring = false;
    measured_cycles = 0;
    flits_moved = 0;
    link_flits = Array.make nlinks 0;
    ran = false;
    observer = None;
    kills = [];
  }

let set_observer t f = t.observer <- Some f

let emit t event =
  match t.observer with Some f -> f event | None -> ()

let schedule_link_kill t ~cycle link =
  if not (Noc.Mesh.link_exists t.mesh link) then
    invalid_arg
      (Format.asprintf "Network.schedule_link_kill: no link %a"
         Noc.Mesh.pp_link link);
  if cycle < 0 then invalid_arg "Network.schedule_link_kill: cycle < 0";
  t.kills <- (cycle, Noc.Mesh.link_id t.mesh link) :: t.kills

let apply_kills t =
  match t.kills with
  | [] -> ()
  | kills ->
      let due, rest = List.partition (fun (c, _) -> c <= t.cycle) kills in
      t.kills <- rest;
      List.iter
        (fun (_, l) ->
          t.rate.(l) <- 0.;
          t.credit.(l) <- 0.;
          emit t
            (Link_killed
               { cycle = t.cycle; link = Noc.Mesh.link_of_id t.mesh l }))
        due

let escape_vc_of t = t.config.Config.num_vcs - 1

let normal_vcs t =
  if t.config.Config.escape_vc then t.config.Config.num_vcs - 1
  else t.config.Config.num_vcs

(* ---------------- injection ---------------- *)

let choose_path inj =
  (* Deficit rule: the path whose delivered share lags the most. *)
  let n = Array.length inj.paths in
  let best = ref 0 and best_deficit = ref neg_infinity in
  for i = 0 to n - 1 do
    let _, share = inj.paths.(i) in
    let deficit =
      (share *. float_of_int (inj.injected + 1)) -. inj.sent_per_path.(i)
    in
    if deficit > !best_deficit then begin
      best := i;
      best_deficit := deficit
    end
  done;
  !best

let inject_new_packets t =
  Array.iteri
    (fun inj_idx inj ->
      inj.acc <- inj.acc +. inj.flit_rate;
      let pf = float_of_int t.config.Config.packet_flits in
      while
        inj.acc >= pf
        && Queue.length inj.pending < t.config.Config.max_pending_packets
      do
        inj.acc <- inj.acc -. pf;
        let path_idx = choose_path inj in
        let route, _ = inj.paths.(path_idx) in
        inj.sent_per_path.(path_idx) <- inj.sent_per_path.(path_idx) +. 1.;
        let pkt =
          {
            id = t.next_packet_id;
            comm_idx = inj_idx;
            route;
            injected_at = t.cycle;
            escaped = false;
          }
        in
        t.next_packet_id <- t.next_packet_id + 1;
        Queue.push pkt inj.pending;
        inj.injected <- inj.injected + 1;
        emit t
          (Injected
             { cycle = t.cycle; comm_id = inj.comm.Traffic.Communication.id;
               packet = pkt.id })
      done;
      (* Without pending room the offered load is dropped: saturation. *)
      if inj.acc >= pf then inj.acc <- pf)
    t.injectors

(* ---------------- ejection ---------------- *)

let eject t =
  for l = 0 to t.nlinks - 1 do
    for v = 0 to t.config.Config.num_vcs - 1 do
      let q = t.queue.(l).(v) in
      if not (Queue.is_empty q) then begin
        let f = Queue.peek q in
        if f.stamp + t.config.Config.router_latency <= t.cycle then begin
          let pkt = f.pkt in
          if f.hop = Array.length pkt.route - 1 then begin
            (* Arrived: consume one flit per cycle per stream. *)
            ignore (Queue.pop q);
            t.space.(l).(v) <- t.space.(l).(v) + 1;
            t.flits_in_flight <- t.flits_in_flight - 1;
            t.total_ejected <- t.total_ejected + 1;
            t.last_progress <- t.cycle;
            let inj = t.injectors.(pkt.comm_idx) in
            if t.measuring then inj.flits_delivered <- inj.flits_delivered + 1;
            if f.is_tail then begin
              t.owner.(l).(v) <- -1;
              t.next_alloc.(l).(v) <- None;
              inj.delivered <- inj.delivered + 1;
              if pkt.escaped then inj.escaped_done <- inj.escaped_done + 1;
              let lat = t.cycle - pkt.injected_at in
              inj.latency_sum <- inj.latency_sum + lat;
              if t.measuring then inj.latencies <- lat :: inj.latencies;
              emit t
                (Delivered
                   { cycle = t.cycle;
                     comm_id = inj.comm.Traffic.Communication.id;
                     packet = pkt.id; latency = lat })
            end
          end
        end
      end
    done
  done

(* ---------------- switch arbitration ---------------- *)

(* Whether the requester has a flit ready to cross [l_out] now, and the
   output VC to use; performs VC allocation for head flits. *)
let try_transfer t l_out req =
  let allocate pkt =
    (* An escaped packet may only take the escape VC. *)
    let last = if pkt.escaped then escape_vc_of t else normal_vcs t - 1 in
    let rec find w =
      if w > last then None
      else if t.owner.(l_out).(w) = -1 && t.space.(l_out).(w) >= 1 then Some w
      else find (w + 1)
    in
    find (if pkt.escaped then last else 0)
  in
  let deliver flit out_vc =
    Queue.push flit t.queue.(l_out).(out_vc);
    flit.stamp <- t.cycle;
    t.space.(l_out).(out_vc) <- t.space.(l_out).(out_vc) - 1;
    if flit.is_head then t.owner.(l_out).(out_vc) <- flit.pkt.id;
    t.credit.(l_out) <- t.credit.(l_out) -. 1.;
    t.flits_moved <- t.flits_moved + 1;
    if t.measuring then t.link_flits.(l_out) <- t.link_flits.(l_out) + 1;
    t.last_progress <- t.cycle
  in
  match req with
  | From (l_in, v) ->
      let q = t.queue.(l_in).(v) in
      if Queue.is_empty q then false
      else begin
        let f = Queue.peek q in
        if f.stamp + t.config.Config.router_latency > t.cycle then false
        else begin
          let pkt = f.pkt in
          if f.hop + 1 >= Array.length pkt.route then false
          else if pkt.route.(f.hop + 1) <> l_out then false
          else begin
            let out_vc =
              match t.next_alloc.(l_in).(v) with
              | Some (lo, w) when lo = l_out -> if f.is_head then None else Some w
              | Some _ -> None
              | None -> if f.is_head then allocate pkt else None
            in
            match out_vc with
            | None -> false
            | Some w ->
                if t.space.(l_out).(w) < 1 then false
                else begin
                  ignore (Queue.pop q);
                  t.space.(l_in).(v) <- t.space.(l_in).(v) + 1;
                  t.wait.(l_in).(v) <- 0;
                  if f.is_head then t.next_alloc.(l_in).(v) <- Some (l_out, w);
                  if f.is_tail then begin
                    t.owner.(l_in).(v) <- -1;
                    t.next_alloc.(l_in).(v) <- None
                  end;
                  f.hop <- f.hop + 1;
                  deliver f w;
                  true
                end
          end
        end
      end
  | Inject ci ->
      let inj = t.injectors.(ci) in
      if Queue.is_empty inj.pending then false
      else begin
        let pkt = Queue.peek inj.pending in
        if pkt.route.(0) <> l_out then false
        else begin
          let pf = t.config.Config.packet_flits in
          let is_head = inj.emit_count = 0 in
          let out_vc =
            if is_head then allocate pkt
            else if inj.emit_vc >= 0 then Some inj.emit_vc
            else None
          in
          match out_vc with
          | None -> false
          | Some w ->
              if t.space.(l_out).(w) < 1 then false
              else begin
                let is_tail = inj.emit_count = pf - 1 in
                let f = { pkt; is_head; is_tail; stamp = t.cycle; hop = 0 } in
                if is_head then inj.emit_vc <- w;
                inj.emit_count <- inj.emit_count + 1;
                t.flits_in_flight <- t.flits_in_flight + 1;
                t.total_injected <- t.total_injected + 1;
                if is_tail then begin
                  ignore (Queue.pop inj.pending);
                  inj.emit_count <- 0;
                  inj.emit_vc <- -1
                end;
                deliver f w;
                true
              end
        end
      end

let arbitrate t =
  for l_out = 0 to t.nlinks - 1 do
    t.credit.(l_out) <- Float.min 2. (t.credit.(l_out) +. t.rate.(l_out));
    let requesters = t.requesters.(l_out) in
    let n = Array.length requesters in
    if t.credit.(l_out) >= 1. && n > 0 then begin
      let start = t.rr.(l_out) mod n in
      let rec go k =
        if k < n then begin
          let i = (start + k) mod n in
          if try_transfer t l_out requesters.(i) then t.rr.(l_out) <- i + 1
          else go (k + 1)
        end
      in
      go 0
    end
  done

(* ---------------- escape ---------------- *)

(* The blocked head flit [f] waits in [current_core]: keep the links up to
   its hop, which its body flits are still on, and finish dimension-ordered
   from there. *)
let reroute_via_xy t f current_core =
  let pkt = f.pkt in
  let comm = t.injectors.(pkt.comm_idx).comm in
  let snk = comm.Traffic.Communication.snk in
  if Noc.Coord.equal current_core snk then ()
  else begin
    let xy = Noc.Path.xy ~src:current_core ~snk in
    let tail_ids = path_links t.mesh xy in
    pkt.route <- Array.append (Array.sub pkt.route 0 (f.hop + 1)) tail_ids;
    pkt.escaped <- true
  end

let trigger_escapes t =
  if t.config.Config.escape_vc then
    for l = 0 to t.nlinks - 1 do
      for v = 0 to t.config.Config.num_vcs - 1 do
        let q = t.queue.(l).(v) in
        if
          (not (Queue.is_empty q))
          && (Queue.peek q).is_head
          && t.next_alloc.(l).(v) = None
        then begin
          t.wait.(l).(v) <- t.wait.(l).(v) + 1;
          let f = Queue.peek q in
          let pkt = f.pkt in
          if
            t.wait.(l).(v) >= t.config.Config.escape_patience
            && (not pkt.escaped)
            && v <> escape_vc_of t
          then begin
            reroute_via_xy t f (Noc.Mesh.link_of_id t.mesh l).Noc.Mesh.dst;
            emit t
              (Escaped
                 { cycle = t.cycle;
                   comm_id = t.injectors.(pkt.comm_idx).comm.Traffic.Communication.id;
                   packet = pkt.id });
            t.wait.(l).(v) <- 0
          end
        end
        else t.wait.(l).(v) <- 0
      done
    done

(* ---------------- main loop ---------------- *)

let step t =
  t.cycle <- t.cycle + 1;
  apply_kills t;
  inject_new_packets t;
  eject t;
  arbitrate t;
  trigger_escapes t;
  if t.measuring then t.measured_cycles <- t.measured_cycles + 1

type comm_stats = {
  comm : Traffic.Communication.t;
  packets_injected : int;
  packets_delivered : int;
  flits_delivered : int;
  escaped_packets : int;
  mean_latency : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  requested_rate : float;
  delivered_rate : float;
}

type report = {
  cycles : int;
  comms : comm_stats list;
  flits_moved : int;
  deadlocked : bool;
  max_link_utilization : float;
  link_utilization : (int * float) array;
      (* per link id, measured flits per cycle, id order *)
  latency_p50 : float;
  latency_p95 : float;
  injected_flits : int;
  ejected_flits : int;
  in_flight_flits : int;
  early_exit : bool;
}

(* Nearest-rank percentile of the recorded latencies. *)
let percentile latencies q =
  match latencies with
  | [] -> Float.nan
  | l ->
      let a = Array.of_list l in
      Array.sort Int.compare a;
      float_of_int a.(Routing.Metrics.nearest_rank (Array.length a) q)

(* One convergence probe per injector: the delivered rate and the latency
   quantiles measured so far. *)
let probe_injector measured (inj : injector) =
  let rate =
    if measured = 0 then 0.
    else
      float_of_int inj.flits_delivered /. float_of_int measured
      *. (inj.comm.Traffic.Communication.rate /. inj.flit_rate)
  in
  (rate, percentile inj.latencies 0.50, percentile inj.latencies 0.95)

(* Convergence between two probes of the same injector, within the
   relative tolerance [tol]: the delivered rate must have reached the
   request (an overloaded link keeps [delivered < requested] forever and
   therefore never converges) and the rate and both quantiles must have
   stopped moving. NaN quantiles (nothing delivered yet) never pass the
   comparisons, so an idle window cannot fake convergence — except for a
   genuinely zero-rate communication, which is vacuously converged. *)
let probe_stable ~tol (inj : injector) (r0, p50_0, p95_0) (r1, p50_1, p95_1) =
  let requested = inj.comm.Traffic.Communication.rate in
  let close scale a b = Float.abs (a -. b) <= tol *. Float.max scale 1. in
  requested <= 0.
  || (r1 >= (1. -. tol) *. requested
     && close requested r0 r1
     && close p50_1 p50_0 p50_1
     && close p95_1 p95_0 p95_1)

let run ?warmup ?tolerance t ~cycles =
  if t.ran then invalid_arg "Sim.Network.run: already run";
  if cycles <= 0 then invalid_arg "Sim.Network.run: cycles must be positive";
  (match warmup with
  | Some w when w < 0 -> invalid_arg "Sim.Network.run: negative warmup"
  | _ -> ());
  (match tolerance with
  | Some tol when (not (Float.is_finite tol)) || tol <= 0. ->
      invalid_arg "Sim.Network.run: tolerance must be positive"
  | _ -> ());
  t.ran <- true;
  let warmup = match warmup with Some w -> w | None -> cycles / 5 in
  let deadlocked = ref false in
  let early = ref false in
  (* Early-exit checkpoints: every [chunk] measured cycles, compare the
     per-communication probes against the previous checkpoint's. *)
  let chunk = max 128 (cycles / 16) in
  let prev_probe = ref None in
  let window = t.config.Config.deadlock_window in
  let total = warmup + cycles in
  (try
     for c = 1 to total do
       if c = warmup + 1 then begin
         t.measuring <- true;
         (* Reset measured counters at the warmup boundary. *)
         Array.iter
           (fun (inj : injector) ->
             inj.flits_delivered <- 0;
             inj.delivered <- 0;
             inj.escaped_done <- 0;
             inj.latency_sum <- 0;
             inj.latencies <- [];
             inj.injected <- 0)
           t.injectors;
         Array.fill t.link_flits 0 t.nlinks 0
       end;
       step t;
       if t.flits_in_flight > 0 && t.cycle - t.last_progress > window then begin
         deadlocked := true;
         emit t (Deadlock { cycle = t.cycle });
         raise Exit
       end;
       (match tolerance with
       | Some tol
         when t.measuring
              && t.measured_cycles mod chunk = 0
              && t.measured_cycles < cycles ->
           let cur =
             Array.map (probe_injector t.measured_cycles) t.injectors
           in
           let stable prev =
             let n = Array.length t.injectors in
             let rec go i =
               i >= n
               || (probe_stable ~tol t.injectors.(i) prev.(i) cur.(i)
                  && go (i + 1))
             in
             go 0
           in
           (match !prev_probe with
           | Some prev when stable prev ->
               early := true;
               raise Exit
           | _ -> ());
           prev_probe := Some cur
       | _ -> ())
     done
   with Exit -> ());
  let measured = max 1 t.measured_cycles in
  let link_utilization =
    Array.mapi
      (fun l n -> (l, float_of_int n /. float_of_int measured))
      t.link_flits
  in
  (* Every measured tail latency, injector order: the pooled quantiles are
     the campaign-level latency objective. *)
  let pooled =
    Array.fold_left
      (fun acc (inj : injector) -> List.rev_append inj.latencies acc)
      [] t.injectors
  in
  {
    cycles = measured;
    comms =
      Array.to_list
        (Array.map
           (fun (inj : injector) ->
             {
               comm = inj.comm;
               packets_injected = inj.injected;
               packets_delivered = inj.delivered;
               flits_delivered = inj.flits_delivered;
               escaped_packets = inj.escaped_done;
               mean_latency =
                 (if inj.delivered = 0 then Float.nan
                  else float_of_int inj.latency_sum /. float_of_int inj.delivered);
               latency_p50 = percentile inj.latencies 0.50;
               latency_p95 = percentile inj.latencies 0.95;
               latency_p99 = percentile inj.latencies 0.99;
               requested_rate = inj.comm.Traffic.Communication.rate;
               delivered_rate =
                 float_of_int inj.flits_delivered
                 /. float_of_int measured
                 *. (inj.comm.Traffic.Communication.rate /. inj.flit_rate);
             })
           t.injectors);
    flits_moved = t.flits_moved;
    deadlocked = !deadlocked;
    max_link_utilization =
      Array.fold_left (fun m (_, u) -> Float.max m u) 0. link_utilization;
    link_utilization;
    latency_p50 = percentile pooled 0.50;
    latency_p95 = percentile pooled 0.95;
    injected_flits = t.total_injected;
    ejected_flits = t.total_ejected;
    in_flight_flits = t.flits_in_flight;
    early_exit = !early;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>sim: %d measured cycles%s, %d flit moves%s@,"
    r.cycles
    (if r.early_exit then " (early exit)" else "")
    r.flits_moved
    (if r.deadlocked then " [DEADLOCK]" else "");
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  %a: delivered %.0f/%.0f Mb/s, %d pkts, latency %.1f, escaped %d@,"
        Traffic.Communication.pp s.comm s.delivered_rate s.requested_rate
        s.packets_delivered s.mean_latency s.escaped_packets)
    r.comms;
  Format.fprintf ppf "max link utilization: %.3f@]" r.max_link_utilization
