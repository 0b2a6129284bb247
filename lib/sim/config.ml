type t = {
  router_latency : int;
  packet_flits : int;
  buffer_flits : int;
  num_vcs : int;
  escape_vc : bool;
  escape_patience : int;
  max_pending_packets : int;
  idle_links_min_level : bool;
  deadlock_window : int;
}

let default =
  {
    router_latency = 1;
    packet_flits = 8;
    buffer_flits = 8;
    num_vcs = 4;
    escape_vc = true;
    escape_patience = 64;
    max_pending_packets = 4;
    idle_links_min_level = true;
    deadlock_window = 10_000;
  }

let validate t =
  if t.router_latency < 1 then invalid_arg "Sim.Config: router_latency < 1";
  if t.packet_flits < 1 then invalid_arg "Sim.Config: packet_flits < 1";
  if t.buffer_flits < 1 then invalid_arg "Sim.Config: buffer_flits < 1";
  if t.num_vcs < 1 then invalid_arg "Sim.Config: num_vcs < 1";
  if t.escape_vc && t.num_vcs < 2 then
    invalid_arg "Sim.Config: escape needs at least 2 VCs";
  if t.escape_patience < 1 then invalid_arg "Sim.Config: escape_patience < 1";
  if t.max_pending_packets < 1 then
    invalid_arg "Sim.Config: max_pending_packets < 1";
  if t.num_vcs > Sys.max_array_length / t.buffer_flits then
    invalid_arg
      "Sim.Config: num_vcs * buffer_flits exceeds Sys.max_array_length";
  if t.max_pending_packets > Sys.max_array_length then
    invalid_arg "Sim.Config: max_pending_packets exceeds Sys.max_array_length";
  if t.deadlock_window < 1 then invalid_arg "Sim.Config: deadlock_window < 1"
