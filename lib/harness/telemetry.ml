type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  args : (string * string) list;
}

(* Buffers are domain-local (each worker prepends to its own list — no
   contention), registered once per domain under [lock]. The registry
   outlives the domains, so a write after [Domain.join] still sees every
   worker's events. *)
type sink = {
  t0 : int64;
  lock : Mutex.t;
  buffers : event list ref list ref;
  dls : event list ref Domain.DLS.key;
}

let create () =
  let lock = Mutex.create () in
  let buffers = ref [] in
  let dls =
    Domain.DLS.new_key (fun () ->
        let b = ref [] in
        Mutex.lock lock;
        buffers := b :: !buffers;
        Mutex.unlock lock;
        b)
  in
  { t0 = Monotonic_clock.now (); lock; buffers; dls }

let now_us s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) s.t0) /. 1e3

let record s ~name ~cat ~args ~ts_us ~dur_us =
  let buf = Domain.DLS.get s.dls in
  buf :=
    { name; cat; ts_us; dur_us; tid = (Domain.self () :> int); args } :: !buf

(* The one branch tracing costs when off. *)
let current : sink option Atomic.t = Atomic.make None
let enabled () = Atomic.get current <> None

let routing_hook s name =
  let ts_us = now_us s in
  fun () -> record s ~name ~cat:"routing" ~args:[] ~ts_us ~dur_us:(now_us s -. ts_us)

let install s =
  Atomic.set current (Some s);
  Routing.Metrics.set_span_hook (Some (routing_hook s))

let uninstall () =
  Atomic.set current None;
  Routing.Metrics.set_span_hook None

let span ?(cat = "span") ?(args = []) name f =
  match Atomic.get current with
  | None -> f ()
  | Some s -> (
      let ts_us = now_us s in
      let finish () =
        record s ~name ~cat ~args ~ts_us ~dur_us:(now_us s -. ts_us)
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

let events s =
  Mutex.lock s.lock;
  let buffers = !(s.buffers) in
  Mutex.unlock s.lock;
  let all = List.concat_map (fun b -> List.rev !b) buffers in
  List.stable_sort
    (fun a b ->
      match Float.compare a.ts_us b.ts_us with
      | 0 -> Float.compare b.dur_us a.dur_us (* enclosing span first *)
      | c -> c)
    all

let event_count s = List.length (events s)

let escape_json buf str =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    str

(* One event object per line, fixed key order: what [validate_file] (and
   the CI checker test) relies on. *)
let event_line ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"name\":\"";
  escape_json buf ev.name;
  Buffer.add_string buf "\",\"cat\":\"";
  escape_json buf ev.cat;
  Buffer.add_string buf
    (Printf.sprintf "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
       ev.ts_us ev.dur_us ev.tid);
  if ev.args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_json buf k;
        Buffer.add_string buf "\":\"";
        escape_json buf v;
        Buffer.add_char buf '"')
      ev.args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let write_file s path =
  let evs = events s in
  let oc = open_out path in
  output_string oc "[\n";
  let n = List.length evs in
  List.iteri
    (fun i ev ->
      output_string oc (event_line ev);
      if i < n - 1 then output_char oc ',';
      output_char oc '\n')
    evs;
  output_string oc "]\n";
  close_out oc;
  n

(* ------------------------------------------------------------------ *)
(* Trace checker *)

let find_field line key =
  (* ["key":] in a line whose strings never embed an unescaped quote. *)
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length line and np = String.length pat in
  let rec go i =
    if i + np > n then None
    else if String.sub line i np = pat then Some (i + np)
    else go (i + 1)
  in
  go 0

let float_field line key =
  match find_field line key with
  | None -> None
  | Some i ->
      let n = String.length line in
      let j = ref i in
      while
        !j < n
        && (match line.[!j] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub line i (!j - i))

let balanced_json text =
  (* Brace/bracket balance outside string literals; also rejects a
     truncated trailing string. *)
  let depth = ref 0 and in_string = ref false and escaped = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_string then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
        else ()
      else
        match c with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    text;
  !ok && !depth = 0 && not !in_string

(* A trimmed excerpt of the offending line, so a validation failure in a
   multi-megabyte trace can be localized without opening it. *)
let snippet line =
  let line = String.trim line in
  if String.length line <= 60 then line else String.sub line 0 57 ^ "..."

(* Localize what [balanced_json] only detects globally: the first line
   that closes more than it opens or leaves a string literal open (event
   lines never span lines), else the imbalance is an unclosed brace at
   the end of the file — the torn-write case. *)
let unbalanced_detail text =
  let depth = ref 0 and in_string = ref false and escaped = ref false in
  let result = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      if !result = None then begin
        String.iter
          (fun c ->
            if !in_string then
              if !escaped then escaped := false
              else if c = '\\' then escaped := true
              else if c = '"' then in_string := false
              else ()
            else
              match c with
              | '"' -> in_string := true
              | '{' | '[' -> incr depth
              | '}' | ']' ->
                  decr depth;
                  if !depth < 0 && !result = None then
                    result := Some (i + 1, "closes more than it opens", line)
              | _ -> ())
          line;
        if !in_string && !result = None then
          result := Some (i + 1, "unterminated string", line)
      end)
    lines;
  match !result with
  | Some r -> r
  | None -> (List.length lines, "braces or brackets left open", "")

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let validate_file path =
  let text = read_file path in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if not (balanced_json text) then
    let line, why, at = unbalanced_detail text in
    fail "line %d: %s%s" line why
      (if at = "" then "" else ": " ^ snippet at)
  else
    match String.split_on_char '\n' (String.trim text) with
    | "[" :: rest when List.rev rest <> [] && List.hd (List.rev rest) = "]" ->
        let body = List.filter (fun l -> l <> "]") rest in
        let stacks : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
        let check_line idx line =
          let line =
            if String.length line > 0 && line.[String.length line - 1] = ','
            then String.sub line 0 (String.length line - 1)
            else line
          in
          if String.length line < 2 || line.[0] <> '{'
             || line.[String.length line - 1] <> '}'
          then fail "line %d: not an event object: %s" (idx + 2) (snippet line)
          else if find_field line "name" = None then
            fail "line %d: missing \"name\": %s" (idx + 2) (snippet line)
          else
            match
              ( find_field line "ph",
                float_field line "ts",
                float_field line "dur",
                float_field line "tid" )
            with
            | None, _, _, _ ->
                fail "line %d: missing \"ph\": %s" (idx + 2) (snippet line)
            | _, None, _, _ | _, _, None, _ | _, _, _, None ->
                fail "line %d: missing ts/dur/tid: %s" (idx + 2) (snippet line)
            | Some _, Some ts, Some dur, Some tid ->
                if dur < 0. then
                  fail "line %d: negative duration: %s" (idx + 2)
                    (snippet line)
                else begin
                  (* Spans of one thread, met in ts order, must nest: pop
                     the spans that ended before this one starts, then this
                     one must close before the enclosing span does. *)
                  let stack =
                    match Hashtbl.find_opt stacks (int_of_float tid) with
                    | Some s -> s
                    | None ->
                        let s = ref [] in
                        Hashtbl.add stacks (int_of_float tid) s;
                        s
                  in
                  let rec pop () =
                    match !stack with
                    | top :: below when top <= ts ->
                        stack := below;
                        pop ()
                    | _ -> ()
                  in
                  pop ();
                  match !stack with
                  | top :: _ when ts +. dur > top ->
                      fail "line %d: span overlaps its enclosing span: %s"
                        (idx + 2) (snippet line)
                  | _ ->
                      stack := (ts +. dur) :: !stack;
                      Ok ()
                end
        in
        let rec go idx last_ts = function
          | [] -> Ok (List.length body)
          | line :: tl -> (
              match check_line idx line with
              | Error _ as e -> e
              | Ok () ->
                  let ts =
                    match float_field line "ts" with Some t -> t | None -> 0.
                  in
                  if ts < last_ts then
                    fail "line %d: events not sorted: %s" (idx + 2)
                      (snippet line)
                  else go (idx + 1) ts tl)
        in
        go 0 neg_infinity body
    | _ -> fail "not a trace-event array (expected '[' ... ']')"

(* ------------------------------------------------------------------ *)
(* CLI / environment wiring *)

let trace_file ?cli () =
  match cli with
  | Some _ -> cli
  | None -> (
      match Sys.getenv_opt "MANROUTE_TRACE" with Some "" -> None | v -> v)

let tracing file f =
  match file with
  | None -> f ()
  | Some path -> (
      (* An unwritable destination fails here, before any work, rather
         than after the whole run. *)
      close_out (open_out path);
      let s = create () in
      install s;
      let write () =
        uninstall ();
        let n = write_file s path in
        Printf.eprintf "trace: wrote %d events to %s\n%!" n path
      in
      match f () with
      | v ->
          write ();
          v
      | exception e ->
          write ();
          raise e)

(* ------------------------------------------------------------------ *)
(* Live progress *)

module Progress = struct
  type t = {
    out : out_channel;
    label : string;
    rows : int;
    total : int;
    started : int64;
    trials_done : int Atomic.t;
    rows_done : int Atomic.t;
    errors : int Atomic.t;
    credited : int Atomic.t;  (* resumed trials, excluded from the ETA rate *)
    last_paint : int64 Atomic.t;
    paint_lock : Mutex.t;
    mutable width : int;
  }

  let create ?(out = stderr) ~label ~rows ~total () =
    let started = Monotonic_clock.now () in
    {
      out;
      label;
      rows;
      total;
      started;
      trials_done = Atomic.make 0;
      rows_done = Atomic.make 0;
      errors = Atomic.make 0;
      credited = Atomic.make 0;
      (* Backdated past the repaint interval so the very first event
         paints ([Int64.min_int] would overflow the subtraction). *)
      last_paint = Atomic.make (Int64.sub started 200_000_000L);
      paint_lock = Mutex.create ();
      width = 0;
    }

  let line t =
    let d = Atomic.get t.trials_done
    and r = Atomic.get t.rows_done
    and e = Atomic.get t.errors
    and c = Atomic.get t.credited in
    let eta =
      (* The ETA rate counts only live-computed trials; checkpoint-resumed
         credits arrive instantly and would inflate it. When *every*
         completed trial so far was resumed the live rate is zero — there
         is no measured pace to divide by, so say that instead of printing
         an [inf]/[nan] ETA. *)
      let measured = d - c in
      if measured <= 0 then
        if c > 0 && d < t.total then ", resumed (no live rate yet)" else ""
      else if d >= t.total then ""
      else
        let elapsed =
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.started) *. 1e-9
        in
        let remaining =
          elapsed /. float_of_int measured *. float_of_int (t.total - d)
        in
        if remaining >= 90. then Printf.sprintf ", ETA %.0fm" (remaining /. 60.)
        else Printf.sprintf ", ETA %.0fs" remaining
    in
    Printf.sprintf "%s: row %d/%d, trial %d/%d%s%s" t.label (min t.rows (r + 1))
      t.rows d t.total
      (if e > 0 then Printf.sprintf ", %d errors" e else "")
      eta

  (* Repaint under [try_lock]: a busy painter means some other domain is
     already refreshing the line — skip, never block a worker. *)
  let paint t =
    if Mutex.try_lock t.paint_lock then begin
      let l = line t in
      let pad = max 0 (t.width - String.length l) in
      Printf.fprintf t.out "\r%s%s%!" l (String.make pad ' ');
      t.width <- String.length l;
      Mutex.unlock t.paint_lock
    end

  let maybe_paint t =
    let now = Monotonic_clock.now () in
    let last = Atomic.get t.last_paint in
    if
      Int64.sub now last > 100_000_000L
      && Atomic.compare_and_set t.last_paint last now
    then paint t

  let tick t =
    Atomic.incr t.trials_done;
    maybe_paint t

  let row t =
    Atomic.incr t.rows_done;
    maybe_paint t

  let error t =
    Atomic.incr t.errors;
    maybe_paint t

  let advance t n =
    ignore (Atomic.fetch_and_add t.trials_done n);
    ignore (Atomic.fetch_and_add t.credited n);
    maybe_paint t

  let finish t =
    Mutex.lock t.paint_lock;
    Printf.fprintf t.out "\r%s\r%!" (String.make t.width ' ');
    t.width <- 0;
    Mutex.unlock t.paint_lock
end
