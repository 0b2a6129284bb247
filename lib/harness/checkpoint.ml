type key = { figure_id : string; seed : int; trials : int }

type value =
  | Float of float
  | Opt of float option
  | Int of int
  | Msg of string option

type reader = {
  float : string -> float;
  opt : string -> float option;
  int : string -> int;
  msg : string -> string option;
}

let magic = "row"
let version = "v2"

exception Corrupt of { path : string; line : int; reason : string }
exception Mismatch of { path : string; line : int; found : string }

let () =
  Printexc.register_printer (function
    | Corrupt { path; line; reason } ->
        Some
          (Printf.sprintf
             "checkpoint %s, line %d: corrupt row (%s); delete the line (or \
              the sidecar) to recompute it"
             path line reason)
    | Mismatch { path; line; found } ->
        Some
          (Printf.sprintf
             "checkpoint %s, line %d: row written by another manroute \
              version (found %s; this build writes %s rows with its own \
              columns); delete the sidecar to recompute"
             path line found version)
    | _ -> None)

(* Floats travel as "%h" hex literals: [float_of_string] round-trips them
   bit-exactly, which is what lets a resumed campaign reproduce the very
   rows a fresh run would compute. "%h" drops a NaN's payload, so a NaN
   travels as its bit pattern instead. *)
let float_text f =
  if Float.is_nan f then Printf.sprintf "nan:%Lx" (Int64.bits_of_float f)
  else Printf.sprintf "%h" f

let parse_float s =
  match String.split_on_char ':' s with
  | [ "nan"; bits ] ->
      Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ bits))
  | _ -> float_of_string_opt s

(* [String.escaped] leaves no literal tab or newline in the payload, and
   the "=" prefix keeps an escaped message that happens to read "-" from
   colliding with the absent marker. *)
let text = function
  | Float f | Opt (Some f) -> float_text f
  | Opt None | Msg None -> "-"
  | Int i -> string_of_int i
  | Msg (Some m) -> "=" ^ String.escaped m

let line key ~x cells =
  let columns =
    match cells with (_, fields) :: _ -> List.map fst fields | [] -> []
  in
  String.concat "\t"
    ([
       magic;
       version;
       key.figure_id;
       string_of_int key.seed;
       string_of_int key.trials;
       float_text x;
       string_of_int (List.length cells);
       String.concat "," columns;
     ]
    @ List.concat_map
        (fun (name, fields) -> name :: List.map (fun (_, v) -> text v) fields)
        cells)

let append ~path key ~x cells =
  (* A crash can leave a torn final line without its newline; gluing the
     next row onto it would corrupt that row as well. Terminate the torn
     line first so only the torn row is lost. *)
  let torn =
    Sys.file_exists path
    &&
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let torn =
      n > 0
      && (seek_in ic (n - 1);
          input_char ic <> '\n')
    in
    close_in ic;
    torn
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  if torn then output_char oc '\n';
  output_string oc (line key ~x cells);
  output_char oc '\n';
  flush oc;
  close_out oc

let parse_opt s =
  if s = "-" then Some None else Option.map Option.some (parse_float s)

let parse_msg s =
  if s = "-" then Some None
  else if String.length s >= 1 && s.[0] = '=' then
    match Scanf.unescaped (String.sub s 1 (String.length s - 1)) with
    | m -> Some (Some m)
    | exception _ -> None
  else None

exception Unparsable of string

(* Typed access to one cell's named values; a missing or unparsable
   column aborts the whole row. *)
let reader values =
  let get parse column =
    match Option.bind (List.assoc_opt column values) parse with
    | Some v -> v
    | None -> raise (Unparsable column)
  in
  {
    float = get parse_float;
    opt = get parse_opt;
    int = get int_of_string_opt;
    msg = get parse_msg;
  }

(* [`Foreign] is any line that does not claim to be one of this
   campaign's rows (other magic/figure/seed/trials — the sidecar is
   shared, and a line torn before its column names claims nothing);
   [`Corrupt] is a line that does claim the key but fails to parse, which
   load localizes by path and line number. *)
let parse_line ~path ~line ~columns key decode l =
  match String.split_on_char '\t' l with
  | m :: v :: fid :: seed :: trials :: x :: ncells :: header :: rest
    when m = magic && fid = key.figure_id
         && int_of_string_opt seed = Some key.seed
         && int_of_string_opt trials = Some key.trials -> (
      if v <> version then raise (Mismatch { path; line; found = v });
      let names = String.split_on_char ',' header in
      let fields = Array.of_list rest in
      let k = List.length names + 1 in
      if fields = [||] then `Corrupt "no cells"
      else
        match
          ( List.find_opt (fun c -> not (List.mem c columns)) names,
            List.find_opt (fun c -> not (List.mem c names)) columns )
        with
        | Some c, _ | None, Some c ->
            raise (Mismatch { path; line; found = "column " ^ c })
        | None, None -> (
            match (parse_float x, int_of_string_opt ncells) with
            | Some x, Some n
              when n > 0
                   && n <= Array.length fields
                   && Array.length fields = n * k -> (
                let cell i =
                  let values =
                    List.mapi (fun j c -> (c, fields.((i * k) + 1 + j))) names
                  in
                  (fields.(i * k), decode (reader values))
                in
                match List.init n cell with
                | cells -> `Row (x, cells)
                | exception Unparsable c -> `Corrupt ("unparsable " ^ c))
            | _ -> `Corrupt "unparsable x or cell count"))
  | _ -> `Foreign

let load ~path key ~columns decode =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> ());
    let lines = List.rev !lines in
    let total = List.length lines in
    let rows = ref [] in
    List.iteri
      (fun i l ->
        match parse_line ~path ~line:(i + 1) ~columns key decode l with
        | `Row row -> rows := row :: !rows
        | `Foreign -> ()
        | `Corrupt reason ->
            (* The final line may simply be torn by a crash mid-write —
               the case [append] heals — so only a corrupt row with rows
               after it is real corruption, reported with its location
               instead of silently recomputed. *)
            if i + 1 <> total then raise (Corrupt { path; line = i + 1; reason }))
      lines;
    List.rev !rows
  end
