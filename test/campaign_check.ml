(* Scaffolding shared by the end-to-end campaign tests: file and
   substring helpers, row equality, the jobs=1 vs jobs=2 campaign bytes
   and the kill-and-resume replay. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let rows_equal (a : Harness.Runner.result) (b : Harness.Runner.result) =
  List.length a.rows = List.length b.rows
  && List.for_all2
       (fun (ra : Harness.Runner.row) (rb : Harness.Runner.row) ->
         ra.x = rb.x && ra.cells = rb.cells)
       a.rows b.rows

(* The CSV and checkpoint bytes of one checkpointed run of [figure] on
   [jobs] worker domains. *)
let campaign ~trials ~seed figure jobs =
  let ckpt = Filename.temp_file "manroute-campaign" ".ckpt" in
  let result =
    Harness.Runner.run ~trials ~seed ~jobs ~checkpoint:ckpt figure
  in
  let csv = Harness.Render.csv result in
  let ckpt_bytes = read_file ckpt in
  Sys.remove ckpt;
  (csv, ckpt_bytes)

(* A killed-and-resumed campaign: run [figure] fresh and checkpointed at
   jobs=1, keep the sidecar's first row, then leave a torn half-written
   line with no newline, as a dying process would, and resume at jobs=2.
   [inspect] sees the healed sidecar before it is removed. Returns the
   fresh and the resumed result. *)
let kill_and_resume ?(inspect = ignore) ~trials ~seed figure =
  let path = Filename.temp_file "manroute-resume" ".ckpt" in
  let run ?checkpoint jobs =
    Harness.Runner.run ~trials ~seed ~jobs ?checkpoint figure
  in
  let fresh = run 1 in
  ignore (run ~checkpoint:path 1);
  let ic = open_in path in
  let first_line = input_line ic in
  close_in ic;
  let oc = open_out path in
  Printf.fprintf oc "%s\nrow\tv2\t%s\t%d\t%d\t0x1p+" first_line
    figure.Harness.Figure.id seed trials;
  close_out oc;
  let resumed = run ~checkpoint:path 2 in
  inspect path;
  Sys.remove path;
  (fresh, resumed)
