(* Warn once per process, not once per call: campaigns consult
   [default_jobs] per figure. *)
let jobs_warned = Atomic.make false

let default_jobs () =
  match Sys.getenv_opt "MANROUTE_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ ->
          let fallback = Domain.recommended_domain_count () in
          if not (Atomic.exchange jobs_warned true) then
            Printf.eprintf
              "manroute: warning: ignoring invalid MANROUTE_JOBS=%S (want a \
               positive integer); using %d domains\n\
               %!"
              s fallback;
          fallback)
  | None -> Domain.recommended_domain_count ()

(* Helper domains are spawned on demand, never joined, and park on [wake]
   between calls: every spawn/join cycle leaves memory behind in the
   runtime, and a campaign calls [map] once per row. A call posts a job
   with one seat per helper it wants, works on it itself, then withdraws
   the job and waits only for the helpers that took a seat — never for
   ones still busy elsewhere, which is what keeps a [map] nested inside
   a worker from deadlocking. *)
type job = {
  work : unit -> unit;  (* the call's worker loop; never raises *)
  mutable seats : int;  (* helpers that may still join *)
  mutable inside : int;  (* helpers running [work] *)
}

let lock = Mutex.create ()
let wake = Condition.create ()
let left = Condition.create ()
let posted : job list ref = ref [] (* jobs with free seats, oldest first *)
let spawned = ref 0

let rec helper () =
  Mutex.lock lock;
  let rec take () =
    match !posted with
    | [] ->
        Condition.wait wake lock;
        take ()
    | j :: rest ->
        j.seats <- j.seats - 1;
        j.inside <- j.inside + 1;
        if j.seats = 0 then posted := rest;
        j
  in
  let j = take () in
  Mutex.unlock lock;
  j.work ();
  Mutex.protect lock (fun () ->
      j.inside <- j.inside - 1;
      if j.inside = 0 then Condition.broadcast left);
  helper ()

(* Spawn outside the lock, one reserved slot at a time. The runtime caps
   the domains of a process, so the first failed spawn ends the loop and
   the call runs on the helpers that exist: results are index-ordered,
   so they do not depend on how many helped. *)
let spawn_helpers k =
  let reserve () =
    Mutex.protect lock (fun () ->
        !spawned < k
        && begin
             incr spawned;
             true
           end)
  in
  try
    while reserve () do
      ignore (Domain.spawn helper : unit Domain.t)
    done
  with Failure _ -> Mutex.protect lock (fun () -> decr spawned)

let share ~helpers work =
  spawn_helpers helpers;
  let j = { work; seats = helpers; inside = 0 } in
  Mutex.protect lock (fun () ->
      posted := !posted @ [ j ];
      Condition.broadcast wake);
  work ();
  Mutex.protect lock (fun () ->
      posted := List.filter (fun j' -> j' != j) !posted;
      while j.inside > 0 do
        Condition.wait left lock
      done)

let map ?tick ?jobs n f =
  if n <= 0 then [||]
  else
    let jobs =
      let j = match jobs with Some j -> j | None -> default_jobs () in
      max 1 (min j n)
    in
    let f =
      match tick with
      | None -> f
      | Some tick ->
          fun i ->
            let v = f i in
            tick ();
            v
    in
    if jobs = 1 then Array.init n f
    else begin
      let results = Array.make n None in
      (* Chunks several times smaller than a fair share, so a slow chunk
         (heuristics are far from constant-cost per trial) cannot leave
         the other workers idle at the tail. *)
      let chunk = max 1 (n / (jobs * 8)) in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let worker () =
        let running = ref true in
        while !running do
          let start = Atomic.fetch_and_add next chunk in
          if start >= n || Atomic.get failure <> None then running := false
          else
            let stop = min n (start + chunk) in
            try
              for i = start to stop - 1 do
                results.(i) <- Some (f i)
              done
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)));
              running := false
        done
      in
      share ~helpers:(jobs - 1) worker;
      (match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.map (function Some v -> v | None -> assert false) results
    end

let map_result ?tick ?jobs n f =
  map ?tick ?jobs n
    (fun i -> try Ok (f i) with e -> Error (Printexc.to_string e))
