type event =
  | Injected of { cycle : int; comm_id : int; packet : int }
  | Delivered of { cycle : int; comm_id : int; packet : int; latency : int }
  | Escaped of { cycle : int; comm_id : int; packet : int }
  | Deadlock of { cycle : int }
  | Link_killed of { cycle : int; link : Noc.Mesh.link }

type injector = {
  comm : Traffic.Communication.t;
  paths : (int array * float) array;  (* routes (link ids) and rate shares *)
  flit_rate : float;  (* injected flits per cycle *)
  mutable acc : float;
  mutable sent_per_path : float array;
  pending : int array;  (* packet slots, oldest first ... *)
  mutable pending_len : int;  (* ... in the first [pending_len] cells *)
  mutable emit_count : int;  (* flits of the head pending packet emitted *)
  mutable emit_vc : int;  (* VC allocated for the head pending packet *)
  mutable injected : int;
  mutable delivered : int;
  mutable flits_delivered : int;
  mutable escaped_done : int;
  mutable latency_sum : int;
  mutable latencies : int array;  (* measured-window tail latencies in ... *)
  mutable n_latencies : int;  (* ... the first cells; full, it doubles *)
}

(* Input queue [q = l * vcs + v] buffers flits at the dst of link [l] on
   VC [v]. A VC holds one packet at a time (allocation waits for its
   owner's tail flit to leave): the queue holds the owner's flits
   [gone.(q)] to [gone.(q) + len.(q) - 1], entered over its route's link
   [hop.(q)], flit [k] stamped in slot [q * depth + k mod depth]. *)
type t = {
  config : Config.t;
  mesh : Noc.Mesh.t;
  nlinks : int;
  vcs : int;
  depth : int;  (* buffer_flits *)
  rate : float array;  (* flits/cycle per link *)
  credit : float array;
  stamp : int array;  (* per flit slot: the cycle it was buffered *)
  len : int array;  (* per queue *)
  owner : int array;  (* packet slot or -1 *)
  hop : int array;
  gone : int array;  (* the owner's flits that left: 0 while its head is in *)
  want : int array;
      (* the link the oldest flit crosses next, [nlinks + l] when the flits
         of link [l] are at their sink, -1 when empty *)
  next_alloc : int array;  (* the output queue of the owner's flits or -1 *)
  wait : int array;
  demand : int array;
      (* per [want] value: the queues that want it, plus, for a link, the
         injectors whose oldest pending packet starts on it *)
  (* Packet slots: the pending packets plus one per VC bound the live
     ones. A slot is freed when its packet's tail flit ejects. *)
  pkt_id : int array;  (* sequential, as events report them *)
  pkt_comm : int array;  (* injector index *)
  pkt_injected_at : int array;
  pkt_escaped : bool array;
  pkt_route : int array array;
      (* link ids, source core to sink core: the injector's array until an
         escape replaces it, so never written in place *)
  free : int array;  (* a stack of the free slots *)
  mutable nfree : int;
  injectors : injector array;
  requesters : int array array;
      (* per output link, arbitration order: an input queue, or [-1 - i]
         for injector [i] *)
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
      let ins = ref [] in
      Noc.Mesh.iter_neighbors mesh (Noc.Mesh.link_of_id mesh l).Noc.Mesh.src
        (fun _ _ into -> ins := into :: !ins);
      List.rev !ins)

let create ?(config = Config.default) ?arena model solution =
  Config.validate config;
  let mesh = Routing.Solution.mesh solution in
  let nlinks = Noc.Mesh.num_links mesh in
  let loads = Routing.Solution.loads solution in
  let vcs = config.Config.num_vcs and depth = config.Config.buffer_flits in
  if nlinks > Sys.max_array_length / (vcs * depth) then
    invalid_arg
      "Sim.Config: links * num_vcs * buffer_flits exceeds Sys.max_array_length";
  let injectors =
    Array.of_list
      (List.map
         (fun (r : Routing.Solution.route) ->
           let total = r.comm.Traffic.Communication.rate in
           let all_routes =
             List.map
               (fun (p, share) -> (Noc.Path.ids mesh p, share /. total))
               r.paths
             @ List.map
                 (fun (w, share) -> (Noc.Walk.ids mesh w, share /. total))
                 r.detours
           in
           {
             comm = r.comm;
             paths = Array.of_list all_routes;
             flit_rate = total /. model.Power.Model.capacity;
             acc = 0.;
             sent_per_path = Array.make (List.length all_routes) 0.;
             pending = Array.make config.Config.max_pending_packets (-1);
             pending_len = 0;
             emit_count = 0;
             emit_vc = -1;
             injected = 0;
             delivered = 0;
             flits_delivered = 0;
             escaped_done = 0;
             latency_sum = 0;
             latencies = Array.make 16 0;
             n_latencies = 0;
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
  let ninj = Array.length injectors and nq = nlinks * vcs in
  (* Every VC of every link into the output link's source router, then
     the injectors at that router in index order. *)
  let requesters =
    Array.init nlinks (fun l ->
        let src = (Noc.Mesh.link_of_id mesh l).Noc.Mesh.src in
        List.concat_map
          (fun l_in -> List.init vcs (fun v -> (l_in * vcs) + v))
          inputs_of.(l)
        @ List.filter_map
            (fun i ->
              let c = injectors.(i).comm.Traffic.Communication.src in
              if Noc.Coord.equal c src then Some (-1 - i) else None)
            (List.init ninj Fun.id)
        |> Array.of_list)
  in
  let slots = (ninj * config.Config.max_pending_packets) + nq in
  {
    config;
    mesh;
    nlinks;
    vcs;
    depth;
    rate =
      Array.init nlinks (fun l ->
          link_rate config model (Noc.Load.get loads l));
    credit = Array.make nlinks 0.;
    stamp = Array.make (nq * depth) 0;
    len = Array.make nq 0;
    owner = Array.make nq (-1);
    hop = Array.make nq 0;
    gone = Array.make nq 0;
    want = Array.make nq (-1);
    next_alloc = Array.make nq (-1);
    wait = Array.make nq 0;
    demand = Array.make (2 * nlinks) 0;
    pkt_id = Array.make slots 0;
    pkt_comm = Array.make slots 0;
    pkt_injected_at = Array.make slots 0;
    pkt_escaped = Array.make slots false;
    pkt_route = Array.make slots [||];
    free = Array.init slots Fun.id;
    nfree = slots;
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
  if t.ran then
    invalid_arg "Network.schedule_link_kill: the network has already run";
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

let oldest_stamp t q = t.stamp.((q * t.depth) + (t.gone.(q) mod t.depth))

(* What the owner of queue [q] wants next: a link, or its sink. *)
let next_link t q =
  let route = t.pkt_route.(t.owner.(q)) and next = t.hop.(q) + 1 in
  if next < Array.length route then route.(next)
  else t.nlinks + route.(next - 1)

let add_demand t w d = if w >= 0 then t.demand.(w) <- t.demand.(w) + d

let set_want t q w =
  add_demand t t.want.(q) (-1);
  add_demand t w 1;
  t.want.(q) <- w

(* Takes the oldest flit out of queue [q]; the owner's tail frees the VC. *)
let pop t q =
  t.len.(q) <- t.len.(q) - 1;
  if t.len.(q) = 0 then set_want t q (-1);
  if t.gone.(q) = t.config.Config.packet_flits - 1 then begin
    t.owner.(q) <- -1;
    t.gone.(q) <- 0;
    t.next_alloc.(q) <- -1
  end
  else t.gone.(q) <- t.gone.(q) + 1

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
  let pf = float_of_int t.config.Config.packet_flits in
  Array.iteri
    (fun inj_idx inj ->
      inj.acc <- inj.acc +. inj.flit_rate;
      while inj.acc >= pf && inj.pending_len < Array.length inj.pending do
        inj.acc <- inj.acc -. pf;
        let path_idx = choose_path inj in
        let route, _ = inj.paths.(path_idx) in
        inj.sent_per_path.(path_idx) <- inj.sent_per_path.(path_idx) +. 1.;
        t.nfree <- t.nfree - 1;
        let p = t.free.(t.nfree) in
        t.pkt_id.(p) <- t.next_packet_id;
        t.pkt_comm.(p) <- inj_idx;
        t.pkt_injected_at.(p) <- t.cycle;
        t.pkt_escaped.(p) <- false;
        t.pkt_route.(p) <- route;
        t.next_packet_id <- t.next_packet_id + 1;
        inj.pending.(inj.pending_len) <- p;
        inj.pending_len <- inj.pending_len + 1;
        if inj.pending_len = 1 then add_demand t route.(0) 1;
        inj.injected <- inj.injected + 1;
        emit t
          (Injected
             { cycle = t.cycle; comm_id = inj.comm.Traffic.Communication.id;
               packet = t.pkt_id.(p) })
      done;
      (* Without pending room the offered load is dropped: saturation. *)
      if inj.acc >= pf then inj.acc <- pf)
    t.injectors

(* ---------------- ejection ---------------- *)

let eject t =
  for l = 0 to t.nlinks - 1 do
    (* Only a link whose flits are at their sink has any to eject. *)
    if t.demand.(t.nlinks + l) > 0 then
      for v = 0 to t.vcs - 1 do
        let q = (l * t.vcs) + v in
        if
          t.want.(q) = t.nlinks + l
          && oldest_stamp t q + t.config.Config.router_latency <= t.cycle
        then begin
          (* Arrived: consume one flit per cycle per stream. *)
          let p = t.owner.(q) in
          let is_tail = t.gone.(q) = t.config.Config.packet_flits - 1 in
          pop t q;
          t.flits_in_flight <- t.flits_in_flight - 1;
          t.total_ejected <- t.total_ejected + 1;
          t.last_progress <- t.cycle;
          let inj = t.injectors.(t.pkt_comm.(p)) in
          if t.measuring then inj.flits_delivered <- inj.flits_delivered + 1;
          if is_tail then begin
            inj.delivered <- inj.delivered + 1;
            if t.pkt_escaped.(p) then inj.escaped_done <- inj.escaped_done + 1;
            let lat = t.cycle - t.pkt_injected_at.(p) in
            inj.latency_sum <- inj.latency_sum + lat;
            if t.measuring then begin
              if inj.n_latencies = Array.length inj.latencies then
                inj.latencies <- Array.append inj.latencies inj.latencies;
              inj.latencies.(inj.n_latencies) <- lat;
              inj.n_latencies <- inj.n_latencies + 1
            end;
            emit t
              (Delivered
                 { cycle = t.cycle;
                   comm_id = inj.comm.Traffic.Communication.id;
                   packet = t.pkt_id.(p); latency = lat });
            t.free.(t.nfree) <- p;
            t.nfree <- t.nfree + 1
          end
        end
      done
  done

(* ---------------- switch arbitration ---------------- *)

(* The first VC of [l_out] that packet [p] may take, free and with buffer
   room, or -1. An escaped packet may only take the escape VC, the last. *)
let allocate t l_out p =
  let escaped = t.pkt_escaped.(p) in
  let last =
    if escaped || not t.config.Config.escape_vc then t.vcs - 1 else t.vcs - 2
  in
  let base = l_out * t.vcs in
  let w = ref (if escaped then last else 0) in
  while
    !w <= last && not (t.owner.(base + !w) = -1 && t.len.(base + !w) < t.depth)
  do
    incr w
  done;
  if !w > last then -1 else !w

(* Sends a flit of packet [p] across [l_out] into VC [w]; a head flit
   takes the VC at route position [hop]. *)
let deliver t l_out w p ~is_head ~hop =
  let q = (l_out * t.vcs) + w in
  if is_head then begin
    t.owner.(q) <- p;
    t.hop.(q) <- hop
  end;
  t.stamp.((q * t.depth) + ((t.gone.(q) + t.len.(q)) mod t.depth)) <- t.cycle;
  t.len.(q) <- t.len.(q) + 1;
  if t.len.(q) = 1 then set_want t q (next_link t q);
  t.credit.(l_out) <- t.credit.(l_out) -. 1.;
  t.flits_moved <- t.flits_moved + 1;
  if t.measuring then t.link_flits.(l_out) <- t.link_flits.(l_out) + 1;
  t.last_progress <- t.cycle

(* Whether requester [req], an injector or an input queue whose flits want
   [l_out], moves one across it now; head flits get a VC allocated. *)
let try_transfer t l_out req =
  if req >= 0 then begin
    if oldest_stamp t req + t.config.Config.router_latency > t.cycle
    then false
    else begin
      let p = t.owner.(req) and is_head = t.gone.(req) = 0 in
      let base = l_out * t.vcs in
      (* Body flits want the link their head took, on its VC. *)
      let w =
        if is_head then allocate t l_out p else t.next_alloc.(req) - base
      in
      if w < 0 || t.len.(base + w) >= t.depth then false
      else begin
        t.wait.(req) <- 0;
        if is_head then t.next_alloc.(req) <- base + w;
        pop t req;
        deliver t l_out w p ~is_head ~hop:(t.hop.(req) + 1);
        true
      end
    end
  end
  else begin
    let inj = t.injectors.(-1 - req) in
    if inj.pending_len = 0 then false
    else begin
      let p = inj.pending.(0) in
      if t.pkt_route.(p).(0) <> l_out then false
      else begin
        let is_head = inj.emit_count = 0 in
        let w = if is_head then allocate t l_out p else inj.emit_vc in
        if w < 0 || t.len.((l_out * t.vcs) + w) >= t.depth then false
        else begin
          if is_head then inj.emit_vc <- w;
          inj.emit_count <- inj.emit_count + 1;
          t.flits_in_flight <- t.flits_in_flight + 1;
          t.total_injected <- t.total_injected + 1;
          if inj.emit_count = t.config.Config.packet_flits then begin
            inj.pending_len <- inj.pending_len - 1;
            Array.blit inj.pending 1 inj.pending 0 inj.pending_len;
            add_demand t l_out (-1);
            if inj.pending_len > 0 then
              add_demand t t.pkt_route.(inj.pending.(0)).(0) 1;
            inj.emit_count <- 0;
            inj.emit_vc <- -1
          end;
          deliver t l_out w p ~is_head ~hop:0;
          true
        end
      end
    end
  end

(* Round robin over the [k] requesters of [l_out] from index [i]: the
   first that moves a flit puts the pointer past itself. One read rejects
   an input queue whose flits are bound elsewhere. *)
let rec scan t l_out requesters i k =
  if k > 0 then begin
    let next = if i + 1 = Array.length requesters then 0 else i + 1 in
    let req = requesters.(i) in
    if (req < 0 || t.want.(req) = l_out) && try_transfer t l_out req then
      t.rr.(l_out) <- next
    else scan t l_out requesters next (k - 1)
  end

let arbitrate t =
  for l_out = 0 to t.nlinks - 1 do
    (* [Float.min 2.], bit for bit, without its sign-bit calls. *)
    let c = t.credit.(l_out) +. t.rate.(l_out) in
    t.credit.(l_out) <- (if c > 2. then 2. else c);
    (* Without demand, no requester has a flit for [l_out]. *)
    if t.credit.(l_out) >= 1. && t.demand.(l_out) > 0 then
      let requesters = t.requesters.(l_out) in
      scan t l_out requesters t.rr.(l_out) (Array.length requesters)
  done

(* ---------------- escape ---------------- *)

(* The blocked head flit of queue [q] waits in [current_core]: keep the
   links up to its hop, which its body flits are still on, and finish
   dimension-ordered from there. Only the queue's own next link changes. *)
let reroute_via_xy t q (comm : Traffic.Communication.t) current_core =
  let p = t.owner.(q) and snk = comm.snk in
  if not (Noc.Coord.equal current_core snk) then begin
    let tail_ids = Noc.Path.ids t.mesh (Noc.Path.xy ~src:current_core ~snk) in
    t.pkt_route.(p) <-
      Array.append (Array.sub t.pkt_route.(p) 0 (t.hop.(q) + 1)) tail_ids;
    t.pkt_escaped.(p) <- true;
    set_want t q (next_link t q)
  end

let trigger_escapes t =
  if t.config.Config.escape_vc then
    for q = 0 to Array.length t.len - 1 do
      if t.len.(q) > 0 && t.gone.(q) = 0 && t.next_alloc.(q) < 0 then begin
        t.wait.(q) <- t.wait.(q) + 1;
        let p = t.owner.(q) in
        if
          t.wait.(q) >= t.config.Config.escape_patience
          && (not t.pkt_escaped.(p))
          && q mod t.vcs <> t.vcs - 1
        then begin
          let comm = t.injectors.(t.pkt_comm.(p)).comm in
          reroute_via_xy t q comm
            (Noc.Mesh.link_of_id t.mesh (q / t.vcs)).Noc.Mesh.dst;
          emit t
            (Escaped
               { cycle = t.cycle; comm_id = comm.Traffic.Communication.id;
                 packet = t.pkt_id.(p) });
          t.wait.(q) <- 0
        end
      end
      else t.wait.(q) <- 0
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

(* A sorted copy of the recorded latencies. *)
let sorted_latencies (inj : injector) =
  let a = Array.sub inj.latencies 0 inj.n_latencies in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of sorted latencies. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else float_of_int sorted.(Routing.Metrics.nearest_rank n q)

(* One convergence probe per injector: the delivered rate and the latency
   quantiles measured so far. *)
let probe_injector measured (inj : injector) =
  let rate =
    if measured = 0 then 0.
    else
      float_of_int inj.flits_delivered /. float_of_int measured
      *. (inj.comm.Traffic.Communication.rate /. inj.flit_rate)
  in
  let sorted = sorted_latencies inj in
  (rate, percentile sorted 0.50, percentile sorted 0.95)

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
  let warmup = match warmup with Some w -> w | None -> cycles / 5 in
  if warmup > max_int - cycles then
    invalid_arg "Sim.Network.run: warmup + cycles overflows";
  t.ran <- true;
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
             inj.n_latencies <- 0;
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
             Array.for_all Fun.id
               (Array.mapi
                  (fun i inj -> probe_stable ~tol inj prev.(i) cur.(i))
                  t.injectors)
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
  (* Every measured tail latency, sorted: the pooled quantiles are the
     campaign-level latency objective. *)
  let pooled =
    Array.concat (Array.to_list (Array.map sorted_latencies t.injectors))
  in
  Array.sort Int.compare pooled;
  {
    cycles = measured;
    comms =
      Array.to_list
        (Array.map
           (fun (inj : injector) ->
             let sorted = sorted_latencies inj in
             {
               comm = inj.comm;
               packets_injected = inj.injected;
               packets_delivered = inj.delivered;
               flits_delivered = inj.flits_delivered;
               escaped_packets = inj.escaped_done;
               mean_latency =
                 (if inj.delivered = 0 then Float.nan
                  else float_of_int inj.latency_sum /. float_of_int inj.delivered);
               latency_p50 = percentile sorted 0.50;
               latency_p95 = percentile sorted 0.95;
               latency_p99 = percentile sorted 0.99;
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
