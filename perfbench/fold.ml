type span = { name : string; cat : string; tid : int; ts : float; dur : float }

(* An open span on a thread's stack, with the union of its direct
   children's intervals accumulated so far. Children of one span arrive
   in start order, so the union grows by one sweep: [cover_end] is the
   right edge of everything covered yet. *)
type frame = {
  span : span;
  stop : float;
  mutable covered : float;
  mutable cover_end : float;
}

let compare_spans a b =
  match Float.compare a.ts b.ts with
  | 0 -> Float.compare b.dur a.dur (* the enclosing span first *)
  | c -> c

let cover parent ~start ~stop =
  let start = Float.max start parent.cover_end and stop = Float.min stop parent.stop in
  if stop > start then begin
    parent.covered <- parent.covered +. (stop -. start);
    parent.cover_end <- stop
  end

let self_times spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid) in
      Hashtbl.replace by_tid s.tid (s :: l))
    spans;
  let out = ref [] in
  let close f = out := (f.span, f.span.dur -. f.covered) :: !out in
  Hashtbl.iter
    (fun _ l ->
      let stack = ref [] in
      List.iter
        (fun s ->
          (* Spans that ended by this one's start are closed: a span that
             starts exactly where another ends is its sibling. *)
          let rec pop () =
            match !stack with
            | top :: rest when top.stop <= s.ts ->
                close top;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          let stop = s.ts +. s.dur in
          (match !stack with
          | parent :: _ -> cover parent ~start:s.ts ~stop
          | [] -> ());
          stack := { span = s; stop; covered = 0.; cover_end = s.ts } :: !stack)
        (List.sort compare_spans l);
      List.iter close !stack)
    by_tid;
  List.sort (fun (a, _) (b, _) -> compare_spans a b) !out

type total = { inclusive : float; self : float; count : int }

let by_key key spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let k = key s in
      let t =
        Option.value
          ~default:{ inclusive = 0.; self = 0.; count = 0 }
          (Hashtbl.find_opt tbl k)
      in
      Hashtbl.replace tbl k
        { inclusive = t.inclusive +. s.dur; self = t.self +. self; count = t.count + 1 })
    (self_times spans);
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))
