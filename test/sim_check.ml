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
