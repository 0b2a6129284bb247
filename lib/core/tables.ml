type port = Eject | Forward of Noc.Mesh.step

module Coord_map = Map.Make (struct
  type t = Noc.Coord.t

  let compare = Noc.Coord.compare
end)

type t = {
  mesh : Noc.Mesh.t;
  entries : (Noc.Coord.t * int, port) Hashtbl.t;
  destinations : (int, Noc.Coord.t) Hashtbl.t;  (* comm id -> sink *)
}

let compile solution =
  let mesh = Solution.mesh solution in
  let entries = Hashtbl.create 256 in
  let destinations = Hashtbl.create 64 in
  let exception Fail of string in
  try
    List.iter
      (fun (r : Solution.route) ->
        let comm = r.comm in
        let id = comm.Traffic.Communication.id in
        if Hashtbl.mem destinations id then
          raise (Fail (Printf.sprintf "duplicate communication id %d" id));
        Hashtbl.replace destinations id comm.snk;
        match r.paths with
        | [ (path, _) ] ->
            let cores = Noc.Path.cores path in
            for i = 0 to Array.length cores - 2 do
              Hashtbl.replace entries (cores.(i), id)
                (Forward
                   (Noc.Mesh.step_of_link
                      (Noc.Mesh.link ~src:cores.(i) ~dst:cores.(i + 1))))
            done;
            Hashtbl.replace entries (comm.snk, id) Eject
        | _ ->
            raise
              (Fail
                 (Printf.sprintf
                    "communication %d uses %d paths; static tables need \
                     single-path routes"
                    id (List.length r.paths))))
      (Solution.routes solution);
    Ok { mesh; entries; destinations }
  with Fail m -> Error m

let compile_exn solution =
  match compile solution with
  | Ok t -> t
  | Error m -> invalid_arg ("Tables.compile: " ^ m)

let lookup t ~core ~comm_id = Hashtbl.find_opt t.entries (core, comm_id)

let entries_at t core =
  Hashtbl.fold
    (fun (c, id) port acc ->
      if Noc.Coord.equal c core then (id, port) :: acc else acc)
    t.entries []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let total_entries t = Hashtbl.length t.entries

let walk t (comm : Traffic.Communication.t) =
  let limit = Noc.Mesh.num_cores t.mesh in
  (* Accumulate cores in reverse; seed with the source. *)
  let rec go acc core hops =
    if hops > limit then Error "walk does not terminate"
    else
      match lookup t ~core ~comm_id:comm.id with
      | None ->
          Error
            (Format.asprintf "no entry for communication %d at %a" comm.id
               Noc.Coord.pp core)
      | Some Eject ->
          if Noc.Coord.equal core comm.snk then
            Ok (Noc.Path.of_cores (Array.of_list (List.rev acc)))
          else
            Error
              (Format.asprintf "ejects at %a instead of %a" Noc.Coord.pp core
                 Noc.Coord.pp comm.snk)
      | Some (Forward step) -> (
          match Noc.Mesh.move t.mesh core step with
          | Some next -> go (next :: acc) next (hops + 1)
          | None ->
              Error
                (Format.asprintf "forwards off the mesh at %a" Noc.Coord.pp
                   core))
  in
  go [ comm.src ] comm.src 0

let destination_conflicts t =
  (* Group ports by (core, destination); count groups with >1 distinct
     forwarding decision. *)
  let groups = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (core, id) port ->
      let dst = Hashtbl.find t.destinations id in
      let key = (core, dst) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (port :: prev))
    t.entries;
  Hashtbl.fold
    (fun _ ports acc ->
      let distinct = List.sort_uniq compare ports in
      if List.length distinct > 1 then acc + 1 else acc)
    groups 0

let pp ppf t =
  let by_core =
    Hashtbl.fold
      (fun (core, id) port acc ->
        Coord_map.update core
          (fun prev -> Some ((id, port) :: Option.value ~default:[] prev))
          acc)
      t.entries Coord_map.empty
  in
  Format.fprintf ppf "@[<v>";
  Coord_map.iter
    (fun core entries ->
      Format.fprintf ppf "%a:" Noc.Coord.pp core;
      List.iter
        (fun (id, port) ->
          let port_s =
            match port with
            | Eject -> "eject"
            | Forward Noc.Mesh.East -> "E"
            | Forward Noc.Mesh.West -> "W"
            | Forward Noc.Mesh.South -> "S"
            | Forward Noc.Mesh.North -> "N"
          in
          Format.fprintf ppf " %d->%s" id port_s)
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) entries);
      Format.fprintf ppf "@,")
    by_core;
  Format.fprintf ppf "@]"
