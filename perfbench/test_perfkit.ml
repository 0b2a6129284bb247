open Perfkit

let span ?(tid = 0) ?(cat = "c") name ts dur = { Fold.name; cat; tid; ts; dur }

let self_of name spans =
  List.fold_left
    (fun acc ((s : Fold.span), self) -> if s.name = name then acc +. self else acc)
    0. (Fold.self_times spans)

let close = Alcotest.(check (float 1e-12))

let nested () =
  (* a [0,10] > b [1,7] > c [2,5] *)
  let spans = [ span "c" 2. 3.; span "a" 0. 10.; span "b" 1. 6. ] in
  close "a self" 4. (self_of "a" spans);
  close "b self" 3. (self_of "b" spans);
  close "c self" 3. (self_of "c" spans)

let siblings () =
  (* a [0,10] > b [1,3], c [3,6] (c starts where b ends), d [8,10] *)
  let spans =
    [ span "a" 0. 10.; span "b" 1. 2.; span "c" 3. 3.; span "d" 8. 2. ]
  in
  close "a self" 3. (self_of "a" spans);
  close "b self" 2. (self_of "b" spans);
  close "c self" 3. (self_of "c" spans);
  close "d self" 2. (self_of "d" spans)

let zero_length () =
  (* Zero-length spans cover nothing: at a parent's start, inside it, at
     its end, and alone. *)
  let spans =
    [
      span "a" 0. 4.; span "z0" 0. 0.; span "z1" 2. 0.; span "z2" 4. 0.;
      span "lone" 9. 0.;
    ]
  in
  close "a self" 4. (self_of "a" spans);
  List.iter (fun z -> close z 0. (self_of z spans)) [ "z0"; "z1"; "z2"; "lone" ];
  Alcotest.(check int) "every span folded" 5 (List.length (Fold.self_times spans))

let threads () =
  (* Overlapping spans on different threads never nest. *)
  let spans = [ span ~tid:1 "a" 0. 10.; span ~tid:2 "b" 2. 3. ] in
  close "a self" 10. (self_of "a" spans);
  close "b self" 3. (self_of "b" spans)

let by_key () =
  let spans =
    [
      span ~cat:"trial" "t" 0. 10.; span ~cat:"h" "x" 1. 4.;
      span ~cat:"h" "x" 6. 2.; span ~cat:"e" "ev" 6.5 1.;
    ]
  in
  let totals = Fold.by_key (fun s -> s.Fold.cat) spans in
  let get k = List.assoc k totals in
  close "h inclusive" 6. (get "h").inclusive;
  close "h self" 5. (get "h").self;
  Alcotest.(check int) "h count" 2 (get "h").count;
  close "trial self" 4. (get "trial").self;
  let self_sum = List.fold_left (fun a (_, t) -> a +. t.Fold.self) 0. totals in
  close "self times partition the root" 10. self_sum

let samples n = Array.init n (fun i -> float_of_int (n - i))

let tail_boundary () =
  let t999 = Tail.summarize (samples 999) in
  Alcotest.(check string) "999 samples: p95" "p95" t999.tail_label;
  Alcotest.(check int) "p99 of 999 leaves 9 beyond" 9 (Tail.beyond ~n:999 99 100);
  let t1000 = Tail.summarize (samples 1000) in
  Alcotest.(check string) "1000 samples: p99" "p99" t1000.tail_label;
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (Tail.beyond ~n:1000 99 100);
  close "p99 of 1..1000" 990. t1000.tail;
  close "p50 of 1..1000" 500. t1000.p50;
  close "p95 of 1..999" 950. t999.tail;
  Alcotest.(check int) "count" 1000 t1000.n

let tail_small () =
  let t = Tail.summarize (samples 19) in
  Alcotest.(check string) "under 20 samples nothing qualifies" "p50" t.tail_label;
  close "tail falls back to p50" t.p50 t.tail;
  Alcotest.(check string) "20 samples: p50" "p50"
    (Tail.summarize (samples 20)).tail_label;
  Alcotest.(check string) "100 samples: p90" "p90"
    (Tail.summarize (samples 100)).tail_label;
  Alcotest.(check string) "capped at p90" "p90"
    (Tail.summarize ~cap:"p90" (samples 100_000)).tail_label;
  Alcotest.(check string) "cap above what qualifies" "p95"
    (Tail.summarize ~cap:"p99" (samples 999)).tail_label;
  Alcotest.check_raises "empty" (Invalid_argument "Tail.summarize: no samples")
    (fun () -> ignore (Tail.summarize [||]))

let () =
  Alcotest.run "perfkit"
    [
      ( "fold",
        [
          Alcotest.test_case "nested spans" `Quick nested;
          Alcotest.test_case "sibling spans" `Quick siblings;
          Alcotest.test_case "zero-length spans" `Quick zero_length;
          Alcotest.test_case "threads never nest" `Quick threads;
          Alcotest.test_case "totals by key" `Quick by_key;
        ] );
      ( "tail",
        [
          Alcotest.test_case "999 and 1000 samples" `Quick tail_boundary;
          Alcotest.test_case "small samples" `Quick tail_small;
        ] );
    ]
