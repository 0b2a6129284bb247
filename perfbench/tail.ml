type t = { n : int; p50 : float; tail_label : string; tail : float }

let levels =
  [
    ("p50", 1, 2);
    ("p90", 9, 10);
    ("p95", 19, 20);
    ("p99", 99, 100);
    ("p99.9", 999, 1000);
    ("p99.99", 9999, 10000);
  ]

(* Nearest rank: the [ceil (n * num / den)]-th smallest sample. *)
let rank ~n num den = max 1 (((n * num) + den - 1) / den)
let beyond ~n num den = n - rank ~n num den

let summarize ?cap samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Tail.summarize: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let at num den = sorted.(rank ~n num den - 1) in
  (* Levels up to [cap], ascending: the last one that qualifies wins. *)
  let rec upto = function
    | [] -> []
    | ((label, _, _) as l) :: tl -> if Some label = cap then [ l ] else l :: upto tl
  in
  let tail_label, num, den =
    List.fold_left
      (fun best ((_, num, den) as level) ->
        if beyond ~n num den >= 10 then level else best)
      (List.hd levels) (upto levels)
  in
  { n; p50 = at 1 2; tail_label; tail = at num den }
