(* Scaffolding shared by the simulator tests and the golden digests: the
   textbook cyclic channel dependency, its escape run at two VCs, and a
   report's escaped-packet count. *)

let coord row col = Noc.Coord.make ~row ~col

(* Four L-shaped routes forming the textbook cyclic channel dependency
   around the unit square (E->S->W->N->E). *)
let cyclic_instance () =
  let mesh = Noc.Mesh.square 3 in
  let mk id src mid snk =
    let c = Traffic.Communication.make ~id ~src ~snk ~rate:3400. in
    let path = Noc.Path.of_cores [| src; mid; snk |] in
    Routing.Solution.route_single c path
  in
  Routing.Solution.make mesh
    [
      mk 0 (coord 1 1) (coord 1 2) (coord 2 2);
      mk 1 (coord 1 2) (coord 2 2) (coord 2 1);
      mk 2 (coord 2 2) (coord 2 1) (coord 1 1);
      mk 3 (coord 2 1) (coord 1 1) (coord 1 2);
    ]

(* One normal VC plus the escape VC: the normal VC alone deadlocks on the
   cyclic instance, so the cycle only drains through the escape channel. *)
let cyclic_two_vcs () =
  let config =
    {
      Sim.Config.default with
      num_vcs = 2;
      packet_flits = 16;
      buffer_flits = 4;
      escape_patience = 32;
      deadlock_window = 2_000;
    }
  in
  Sim.Validate.run ~config ~cycles:30_000 Power.Model.kim_horowitz
    (cyclic_instance ())

let escaped (r : Sim.Network.report) =
  List.fold_left
    (fun acc (s : Sim.Network.comm_stats) -> acc + s.escaped_packets)
    0 r.comms

(* Every observer event of [net], one line each in emission order. *)
let record_events buf net =
  Sim.Network.set_observer net (function
    | Sim.Network.Injected { cycle; comm_id; packet } ->
        Printf.bprintf buf "I %d %d %d\n" cycle comm_id packet
    | Delivered { cycle; comm_id; packet; latency } ->
        Printf.bprintf buf "D %d %d %d %d\n" cycle comm_id packet latency
    | Escaped { cycle; comm_id; packet } ->
        Printf.bprintf buf "E %d %d %d\n" cycle comm_id packet
    | Deadlock { cycle } -> Printf.bprintf buf "X %d\n" cycle
    | Link_killed { cycle; link } ->
        Printf.bprintf buf "K %d %s\n" cycle
          (Format.asprintf "%a" Noc.Mesh.pp_link link))

(* Two YX routes on 6x6 whose second hops die at cycles 200 and 300: the
   blocked packets escape from row 2, seven hops from their sinks, and
   the two XY escape tails share row 2 and column 5. *)
let long_escape_instance () =
  let mesh = Noc.Mesh.square 6 in
  let yx id src snk rate =
    let c = Traffic.Communication.make ~id ~src ~snk ~rate in
    Routing.Solution.route_single c (Noc.Path.yx ~src ~snk)
  in
  ( Routing.Solution.make mesh
      [ yx 0 (coord 1 1) (coord 5 5) 800.; yx 1 (coord 1 2) (coord 6 5) 600. ],
    [
      (200, Noc.Mesh.link ~src:(coord 2 1) ~dst:(coord 3 1));
      (300, Noc.Mesh.link ~src:(coord 2 2) ~dst:(coord 3 2));
    ] )

(* Buffer/packet/VC/patience mixes that run the input buffers at one flit
   and at odd sizes, the third with a two-cycle router. *)
let odd_buffer_configs =
  let mk buffer_flits packet_flits num_vcs escape_patience =
    {
      Sim.Config.default with
      buffer_flits;
      packet_flits;
      num_vcs;
      escape_patience;
    }
  in
  [
    mk 1 1 2 64;
    mk 3 3 3 4;
    { (mk 2 5 2 8) with router_latency = 2 };
    mk 1 4 3 1;
  ]
