type counters = {
  mutable paths_scored : int;
  mutable dp_cells : int;
  mutable bb_nodes : int;
  mutable detour_searches : int;
  mutable feasibility_checks : int;
  mutable delta_evals : int;
  mutable pf_iterations : int;
  mutable pf_rips : int;
  mutable recover_events : int;
  mutable recover_sheds : int;
  mutable recover_rung_max : int;
}

let zero () =
  {
    paths_scored = 0;
    dp_cells = 0;
    bb_nodes = 0;
    detour_searches = 0;
    feasibility_checks = 0;
    delta_evals = 0;
    pf_iterations = 0;
    pf_rips = 0;
    recover_events = 0;
    recover_sheds = 0;
    recover_rung_max = 0;
  }

(* One block per domain: increments never contend, and a trial runs
   entirely on one domain, so snapshot deltas taken around it are exact
   whatever the worker count. *)
let key = Domain.DLS.new_key zero
let current () = Domain.DLS.get key

type field = {
  name : string;
  suffix : string;
  label : string;
  get : counters -> int;
  set : counters -> int -> unit;
}

let fields =
  let f name suffix label get set = { name; suffix; label; get; set } in
  [
    f "paths_scored" "paths" "paths"
      (fun c -> c.paths_scored)
      (fun c v -> c.paths_scored <- v);
    f "dp_cells" "dp" "dp" (fun c -> c.dp_cells) (fun c v -> c.dp_cells <- v);
    f "bb_nodes" "bb" "bb" (fun c -> c.bb_nodes) (fun c v -> c.bb_nodes <- v);
    f "detour_searches" "reroutes" "detours"
      (fun c -> c.detour_searches)
      (fun c v -> c.detour_searches <- v);
    f "feasibility_checks" "evals" "evals"
      (fun c -> c.feasibility_checks)
      (fun c v -> c.feasibility_checks <- v);
    f "delta_evals" "delta_evals" "delta"
      (fun c -> c.delta_evals)
      (fun c v -> c.delta_evals <- v);
    f "pf_iterations" "pf_iters" "pf-it"
      (fun c -> c.pf_iterations)
      (fun c v -> c.pf_iterations <- v);
    f "pf_rips" "pf_rips" "pf-rips"
      (fun c -> c.pf_rips)
      (fun c v -> c.pf_rips <- v);
    f "recover_events" "recover_events" "rec-ev"
      (fun c -> c.recover_events)
      (fun c v -> c.recover_events <- v);
    f "recover_sheds" "recover_sheds" "rec-shed"
      (fun c -> c.recover_sheds)
      (fun c v -> c.recover_sheds <- v);
    f "recover_rung_max" "recover_rung_max" "rec-rung"
      (fun c -> c.recover_rung_max)
      (fun c v -> c.recover_rung_max <- v);
  ]

let init value =
  let c = zero () in
  List.iter (fun f -> f.set c (value f)) fields;
  c

let snapshot () =
  let c = current () in
  init (fun f -> f.get c)

let diff a b = init (fun f -> f.get a - f.get b)
let add ~into c = List.iter (fun f -> f.set into (f.get into + f.get c)) fields

let nearest_rank n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let is_zero c = List.for_all (fun f -> f.get c = 0) fields
let equal a b = List.for_all (fun f -> f.get a = f.get b) fields

let pp ppf c =
  if is_zero c then Format.pp_print_string ppf "-"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
      (fun ppf f -> Format.fprintf ppf "%s=%d" f.label (f.get c))
      ppf
      (List.filter (fun f -> f.get c <> 0) fields)

let span_hook : (string -> unit -> unit) option Atomic.t = Atomic.make None
let set_span_hook h = Atomic.set span_hook h

let with_span name f =
  match Atomic.get span_hook with
  | None -> f ()
  | Some hook -> (
      let finish = hook name in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)
