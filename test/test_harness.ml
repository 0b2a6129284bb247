(* Tests for the experiment harness: figure generators, the Monte-Carlo
   runner's bookkeeping, CSV rendering and summary aggregation. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_figures_registered () =
  check_int "fifteen figures" 15 (List.length Harness.Figure.all);
  check_bool "find fig8b" true
    (match Harness.Figure.find "FIG8B" with
    | Some f -> f.Harness.Figure.id = "fig8b"
    | None -> false);
  check_bool "find figpf" true
    (match Harness.Figure.find "figpf" with
    | Some f -> f.Harness.Figure.id = "figpf"
    | None -> false);
  check_bool "find figrec" true
    (match Harness.Figure.find "figrec" with
    | Some f -> f.Harness.Figure.id = "figrec"
    | None -> false);
  check_bool "find figpareto" true
    (match Harness.Figure.find "figpareto" with
    | Some f ->
        f.Harness.Figure.id = "figpareto" && f.Harness.Figure.sim <> None
    | None -> false);
  check_bool "unknown" true (Harness.Figure.find "fig10" = None)

let test_generators_obey_specs () =
  let rng = Traffic.Rng.create 9 in
  (* fig7a draws x communications with small weights. *)
  let comms = Harness.Figure.fig7a.generate rng 40. in
  check_int "count" 40 (List.length comms);
  List.iter
    (fun (c : Traffic.Communication.t) ->
      check_bool "small band" true (c.rate >= 100. && c.rate < 1500.))
    comms;
  (* fig8b draws 20 comms around the given average weight. *)
  let comms = Harness.Figure.fig8b.generate rng 2000. in
  check_int "count" 20 (List.length comms);
  List.iter
    (fun (c : Traffic.Communication.t) ->
      check_bool "centered band" true (c.rate >= 1750. && c.rate < 2250.))
    comms;
  (* fig9c draws 12 comms of length x-1..x+1. *)
  let comms = Harness.Figure.fig9c.generate rng 6. in
  check_int "count" 12 (List.length comms);
  List.iter
    (fun c ->
      let len = Traffic.Communication.length c in
      check_bool "length near 6" true (len >= 5 && len <= 7))
    comms

let tiny_figure =
  {
    Harness.Figure.id = "tiny";
    title = "tiny test figure";
    xlabel = "n";
    xs = [ 2.; 4. ];
    generate =
      (fun rng x ->
        Traffic.Workload.uniform rng Harness.Figure.mesh ~n:(int_of_float x)
          ~weight:Traffic.Workload.small);
    scenario = None;
    paired = false;
    heuristics = None;
    sim = None;
  }

let test_runner_bookkeeping () =
  let acc = Harness.Summary.create () in
  let r = Harness.Runner.run ~trials:10 ~summary:acc tiny_figure in
  check_int "two rows" 2 (List.length r.rows);
  List.iter
    (fun (row : Harness.Runner.row) ->
      check_int "seven cells" 7 (List.length row.cells);
      let best = List.assoc "BEST" row.cells in
      List.iter
        (fun (_, (s : Harness.Runner.stats)) ->
          check_bool "failure ratio in [0,1]" true
            (s.failure_ratio >= 0. && s.failure_ratio <= 1.);
          check_bool "norm in [0,1]" true
            (s.norm_inv_power >= 0. && s.norm_inv_power <= 1. +. 1e-9);
          check_bool "best dominates" true
            (s.norm_inv_power <= best.norm_inv_power +. 1e-9))
        row.cells;
      (* For BEST, normalized inverse power is exactly its success rate. *)
      check_float "best norm = success" (1. -. best.failure_ratio)
        best.norm_inv_power)
    r.rows;
  let s = Harness.Summary.finalize acc in
  check_int "instances observed" 20 s.Harness.Summary.instances

let test_runner_deterministic () =
  let run () = Harness.Runner.run ~trials:5 ~seed:3 tiny_figure in
  let a = run () and b = run () in
  List.iter2
    (fun (ra : Harness.Runner.row) (rb : Harness.Runner.row) ->
      List.iter2
        (fun (na, (sa : Harness.Runner.stats)) (nb, (sb : Harness.Runner.stats)) ->
          check_bool "same name" true (na = nb);
          check_float "same norm" sa.norm_inv_power sb.norm_inv_power;
          check_float "same fail" sa.failure_ratio sb.failure_ratio)
        ra.cells rb.cells)
    a.rows b.rows

let test_runner_jobs_invariant () =
  (* The sharding contract: jobs:1 and jobs:4 with the same seed give
     bit-identical rows and identical Summary counters (runtimes are the
     one wall-clock-dependent output and are excluded). *)
  let campaign jobs =
    let acc = Harness.Summary.create () in
    let r = Harness.Runner.run ~trials:12 ~seed:7 ~jobs ~summary:acc tiny_figure in
    (r, Harness.Summary.finalize acc)
  in
  let r1, s1 = campaign 1 and r4, s4 = campaign 4 in
  List.iter2
    (fun (ra : Harness.Runner.row) (rb : Harness.Runner.row) ->
      check_bool "same x" true (ra.x = rb.x);
      List.iter2
        (fun (na, (sa : Harness.Runner.stats)) (nb, (sb : Harness.Runner.stats)) ->
          check_bool "same name" true (na = nb);
          check_bool "bit-identical stats" true (sa = sb))
        ra.cells rb.cells)
    r1.rows r4.rows;
  check_int "same instances" s1.Harness.Summary.instances
    s4.Harness.Summary.instances;
  check_bool "identical success ratios" true
    (s1.success_ratio = s4.success_ratio);
  check_bool "identical mean inverse power" true
    (s1.mean_inverse_power = s4.mean_inverse_power);
  check_bool "identical vs-XY ratios" true
    (s1.inverse_power_vs_xy = s4.inverse_power_vs_xy);
  check_bool "identical static fraction" true
    (s1.static_fraction = s4.static_fraction
    || (Float.is_nan s1.static_fraction && Float.is_nan s4.static_fraction))

let test_pool_map_orders_results () =
  let a = Harness.Pool.map ~jobs:4 100 (fun i -> i * i) in
  check_int "length" 100 (Array.length a);
  Array.iteri (fun i v -> check_int "ordered" (i * i) v) a;
  check_int "empty" 0 (Array.length (Harness.Pool.map ~jobs:4 0 Fun.id));
  check_int "singleton" 1 (Array.length (Harness.Pool.map ~jobs:4 1 Fun.id))

let test_pool_map_propagates_exceptions () =
  Alcotest.check_raises "worker exception reaches caller"
    (Invalid_argument "boom") (fun () ->
      ignore
        (Harness.Pool.map ~jobs:3 64 (fun i ->
             if i = 13 then invalid_arg "boom" else i)))

(* Helper domains are spawned once and parked between calls, so calling
   [map] in a loop must not grow the process: memory a short-lived domain
   promoted piles up when every call spawns and joins its own. *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             try Scanf.sscanf line "VmHWM: %d kB" Option.some
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let test_pool_reuse_keeps_memory_flat () =
  match vm_hwm_kb () with
  | None -> Alcotest.skip ()
  | Some _ ->
      (* Each index builds a 5000-cell list, as a trial builds its
         scratch state: it lives across minor collections, so part of it
         is promoted on the domain that built it. *)
      let f i = List.length (List.init 5000 (fun j -> i + j)) in
      (* Warm-up: the helper exists and both minor heaps are in use. *)
      for _ = 1 to 200 do
        ignore (Harness.Pool.map ~jobs:2 4 f)
      done;
      let before = Option.get (vm_hwm_kb ()) in
      for _ = 1 to 2000 do
        ignore (Harness.Pool.map ~jobs:2 4 f)
      done;
      let grown = Option.get (vm_hwm_kb ()) - before in
      check_bool
        (Printf.sprintf "2000 maps grew VmHWM by %d kB (< 4 MB)" grown)
        true (grown < 4096)

let test_pool_nested_map_completes () =
  let a =
    Harness.Pool.map ~jobs:2 6 (fun i ->
        Array.fold_left ( + ) 0 (Harness.Pool.map ~jobs:2 10 (fun j -> i * j)))
  in
  Array.iteri (fun i v -> check_int "nested sum" (i * 45) v) a

let test_pool_exception_then_reuse () =
  ignore (Harness.Pool.map ~jobs:2 4 Fun.id);
  Alcotest.check_raises "re-raised in the caller" (Failure "parked")
    (fun () ->
      ignore
        (Harness.Pool.map ~jobs:2 32 (fun i ->
             if i = 0 then failwith "parked" else i)));
  let a = Harness.Pool.map ~jobs:2 32 (fun i -> i + 1) in
  Array.iteri (fun i v -> check_int "next map works" (i + 1) v) a

(* Telemetry buffers are domain-local and keyed per sink: a helper that
   outlives one sink must still record into the next. *)
let test_pool_helper_spans_reach_fresh_sink () =
  let main = (Domain.self () :> int) in
  let helper_spans () =
    let sink = Harness.Telemetry.create () in
    Harness.Telemetry.install sink;
    Fun.protect ~finally:Harness.Telemetry.uninstall (fun () ->
        let arrived = Atomic.make 0 in
        ignore
          (Harness.Pool.map ~jobs:2 2 (fun _ ->
               (* Both indices wait (bounded) for each other, so a helper
                  takes one of them. *)
               Atomic.incr arrived;
               let deadline = Unix.gettimeofday () +. 5. in
               while
                 Atomic.get arrived < 2 && Unix.gettimeofday () < deadline
               do
                 Domain.cpu_relax ()
               done;
               if (Domain.self () :> int) <> main then
                 Harness.Telemetry.span "helper" ignore)));
    Harness.Telemetry.event_count sink
  in
  check_int "first sink records the helper's span" 1 (helper_spans ());
  check_int "a fresh sink records it too" 1 (helper_spans ())

let test_summary_merge_matches_sequential () =
  (* Folding two halves into separate accumulators and merging equals one
     sequential accumulation. *)
  let seq = Harness.Summary.create () in
  ignore (Harness.Runner.run ~trials:10 ~seed:2 ~summary:seq tiny_figure);
  let a = Harness.Summary.create () and b = Harness.Summary.create () in
  ignore (Harness.Runner.run ~trials:10 ~seed:2 ~summary:a tiny_figure);
  Harness.Summary.merge ~into:b a;
  let fs = Harness.Summary.finalize seq and fm = Harness.Summary.finalize b in
  check_int "instances" fs.Harness.Summary.instances
    fm.Harness.Summary.instances;
  check_bool "success ratios" true (fs.success_ratio = fm.success_ratio);
  check_bool "mean inverse power" true
    (fs.mean_inverse_power = fm.mean_inverse_power)

let contains_substring = Campaign_check.contains

let test_csv_shape () =
  let r = Harness.Runner.run ~trials:3 tiny_figure in
  let csv = Harness.Render.csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  let header = List.hd lines in
  check_bool "header starts with x" true (String.length header > 1 && header.[0] = 'x');
  check_bool "has XYI column" true (contains_substring header "XYI_norm")

let test_write_csv () =
  let r = Harness.Runner.run ~trials:2 tiny_figure in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "manroute_test_csv" in
  let path = Harness.Render.write_csv ~dir r in
  check_bool "file exists" true (Sys.file_exists path);
  Sys.remove path

let test_summary_ratios () =
  let acc = Harness.Summary.create () in
  ignore (Harness.Runner.run ~trials:15 ~summary:acc tiny_figure);
  let s = Harness.Summary.finalize acc in
  let get name l = List.assoc name l in
  check_bool "XY baseline is 1" true
    (Float.abs (get "XY" s.Harness.Summary.inverse_power_vs_xy -. 1.) < 1e-9);
  check_bool "BEST dominates XY" true
    (get "BEST" s.Harness.Summary.inverse_power_vs_xy >= 1.);
  check_bool "success ratios in range" true
    (List.for_all (fun (_, v) -> v >= 0. && v <= 1.) s.Harness.Summary.success_ratio);
  check_bool "runtimes measured" true (s.Harness.Summary.mean_runtime_ms <> [])

let test_pp_result_smoke () =
  let r = Harness.Runner.run ~trials:2 tiny_figure in
  let s = Format.asprintf "%a" Harness.Render.pp_result r in
  check_bool "mentions every heuristic" true
    (List.for_all
       (fun (h : Routing.Heuristic.t) -> contains_substring s h.name)
       Routing.Heuristic.all);
  check_bool "mentions BEST" true (contains_substring s "BEST");
  check_bool "mentions the title" true (contains_substring s "tiny test figure")

let test_summary_pp_smoke () =
  let acc = Harness.Summary.create () in
  ignore (Harness.Runner.run ~trials:3 ~summary:acc tiny_figure);
  let s = Format.asprintf "%a" Harness.Summary.pp (Harness.Summary.finalize acc) in
  check_bool "has success block" true (contains_substring s "success ratio");
  check_bool "has runtime block" true (contains_substring s "mean runtime");
  check_bool "instance count" true (contains_substring s "6 instances")

let test_stderr_sane () =
  let r = Harness.Runner.run ~trials:20 tiny_figure in
  List.iter
    (fun (row : Harness.Runner.row) ->
      List.iter
        (fun (_, (s : Harness.Runner.stats)) ->
          check_bool "stderr non-negative" true (s.norm_stderr >= 0.);
          (* A mean in [0,1] over 20 samples has stderr at most ~0.12. *)
          check_bool "stderr bounded" true (s.norm_stderr <= 0.12))
        row.cells)
    r.rows

(* ------------------------------------------------------------------ *)
(* Heatmap *)

let test_heatmap_shape_and_symbols () =
  let mesh = Noc.Mesh.square 3 in
  let loads = Noc.Load.create mesh in
  let link r1 c1 r2 c2 =
    Noc.Mesh.link
      ~src:(Noc.Coord.make ~row:r1 ~col:c1)
      ~dst:(Noc.Coord.make ~row:r2 ~col:c2)
  in
  Noc.Load.add_link loads (link 1 1 1 2) 3500.;  (* full: '9' *)
  Noc.Load.add_link loads (link 2 1 2 2) 350.;   (* one tenth: '1' *)
  Noc.Load.add_link loads (link 1 1 2 1) 4000.;  (* overloaded: '!' *)
  let s = Harness.Render.heatmap loads in
  let lines = String.split_on_char '\n' (String.trim s) in
  check_int "5 lines for 3x3" 5 (List.length lines);
  check_bool "full link shown as 9" true
    (String.length (List.nth lines 0) > 2 && (List.nth lines 0).[2] = '9');
  check_bool "tenth link shown as 1" true ((List.nth lines 2).[2] = '1');
  check_bool "overload shown as !" true ((List.nth lines 1).[0] = '!');
  check_bool "idle shown as ." true ((List.nth lines 3).[0] = '.')

let test_heatmap_uses_busier_direction () =
  let mesh = Noc.Mesh.square 2 in
  let loads = Noc.Load.create mesh in
  let fwd =
    Noc.Mesh.link
      ~src:(Noc.Coord.make ~row:1 ~col:1)
      ~dst:(Noc.Coord.make ~row:1 ~col:2)
  and bwd =
    Noc.Mesh.link
      ~src:(Noc.Coord.make ~row:1 ~col:2)
      ~dst:(Noc.Coord.make ~row:1 ~col:1)
  in
  Noc.Load.add_link loads fwd 100.;
  Noc.Load.add_link loads bwd 3400.;
  let s = Harness.Render.heatmap loads in
  check_bool "max of both directions" true ((List.nth (String.split_on_char '\n' s) 0).[2] = '9')

let test_heatmap_single_row () =
  let mesh = Noc.Mesh.create ~rows:1 ~cols:4 in
  let loads = Noc.Load.create mesh in
  Noc.Load.add_link loads
    (Noc.Mesh.link ~src:(Noc.Coord.make ~row:1 ~col:1)
       ~dst:(Noc.Coord.make ~row:1 ~col:2))
    1750.;
  let s = String.trim (Harness.Render.heatmap loads) in
  check_int "single line" 1 (List.length (String.split_on_char '\n' s));
  check_bool "half load is 5" true (s.[2] = '5')

(* ------------------------------------------------------------------ *)
(* Problem files *)

let test_problem_roundtrip () =
  let rng = Traffic.Rng.create 12 in
  let mesh = Noc.Mesh.create ~rows:4 ~cols:6 in
  let comms = Traffic.Workload.uniform rng mesh ~n:9 ~weight:Traffic.Workload.small in
  let p = { Harness.Problem.mesh; comms } in
  match Harness.Problem.parse (Harness.Problem.to_string p) with
  | Error m -> Alcotest.fail m
  | Ok p' ->
      check_int "rows" 4 (Noc.Mesh.rows p'.Harness.Problem.mesh);
      check_int "cols" 6 (Noc.Mesh.cols p'.Harness.Problem.mesh);
      check_int "count" 9 (List.length p'.comms);
      List.iter2
        (fun (a : Traffic.Communication.t) (b : Traffic.Communication.t) ->
          check_bool "same endpoints" true
            (Noc.Coord.equal a.src b.src && Noc.Coord.equal a.snk b.snk);
          check_bool "same rate" true (Float.abs (a.rate -. b.rate) < 1e-6))
        comms p'.comms

let test_problem_comments_and_blanks () =
  let text = "# a comment\n\nmesh 2 2\n\n  # another\ncomm 1 1 2 2 100\n" in
  match Harness.Problem.parse text with
  | Ok p -> check_int "one comm" 1 (List.length p.Harness.Problem.comms)
  | Error m -> Alcotest.fail m

let test_problem_errors () =
  let expect_error text =
    match Harness.Problem.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should reject: %s" text
  in
  expect_error "";
  expect_error "comm 1 1 2 2 100";
  expect_error "mesh 0 4";
  expect_error "mesh 2 2\ncomm 1 1 5 5 100";
  expect_error "mesh 2 2\ncomm 1 1 2 2 -5";
  expect_error "mesh 2 2\ncomm 1 1 2 2 nan";
  expect_error "mesh 2 2\ncomm 1 1 2 2 inf";
  expect_error "mesh 2 2\ncomm 1 1 1 1 100";
  expect_error "mesh 2 2\nnonsense line"

(* ------------------------------------------------------------------ *)
(* Crash safety: error isolation and checkpoints *)

let bomb =
  Routing.Heuristic.of_plain ~name:"BOMB" ~description:"always raises"
    (fun _ _ _ -> failwith "kaboom")

let test_runner_isolates_heuristic_errors () =
  let acc = Harness.Summary.create () in
  let heuristics = Routing.Heuristic.all @ [ bomb ] in
  let r =
    Harness.Runner.run ~trials:6 ~seed:4 ~heuristics ~summary:acc tiny_figure
  in
  check_int "campaign completes" 2 (List.length r.rows);
  let reference = Harness.Runner.run ~trials:6 ~seed:4 tiny_figure in
  List.iter2
    (fun (row : Harness.Runner.row) (ref_row : Harness.Runner.row) ->
      let b = List.assoc "BOMB" row.cells in
      check_float "bomb errors every trial" 1. b.error_ratio;
      check_float "errors count as failures" 1. b.failure_ratio;
      check_float "errored cell scores zero" 0. b.norm_inv_power;
      check_bool "error message captured" true
        (match b.error_example with
        | Some m -> contains_substring m "kaboom"
        | None -> false);
      (* Every other cell is error-free and bit-identical to a campaign
         run without the bomb at all. *)
      List.iter
        (fun (name, (s : Harness.Runner.stats)) ->
          if name <> "BOMB" then begin
            check_float (name ^ " error-free") 0. s.error_ratio;
            check_bool (name ^ " unaffected") true
              (s = List.assoc name ref_row.cells)
          end)
        row.cells)
    r.rows reference.rows;
  (* Trials with any errored cell are excluded from the summary. *)
  let s = Harness.Summary.finalize acc in
  check_int "no instance observed" 0 s.Harness.Summary.instances

let test_fault_figure_campaign () =
  match Harness.Figure.find "figf" with
  | None -> Alcotest.fail "figf not registered"
  | Some fig ->
      let r = Harness.Runner.run ~trials:4 ~seed:5 fig in
      check_int "seven x points" 7 (List.length r.rows);
      let best (row : Harness.Runner.row) = List.assoc "BEST" row.cells in
      let first = List.hd r.rows
      and last = List.nth r.rows (List.length r.rows - 1) in
      (* x = 0 kills nothing: no trial errors, no detours — though heavy
         mixed traffic may still be infeasible for every heuristic. *)
      check_float "healthy mesh never errors" 0. (best first).error_ratio;
      check_float "healthy mesh never detours" 0.
        (best first).mean_detour_hops;
      check_bool "kills do not help" true
        ((best last).failure_ratio >= (best first).failure_ratio);
      List.iter
        (fun (row : Harness.Runner.row) ->
          List.iter
            (fun (_, (s : Harness.Runner.stats)) ->
              check_bool "errors are failures" true
                (s.error_ratio <= s.failure_ratio +. 1e-9);
              check_bool "errors carry a message" true
                (s.error_ratio = 0. || s.error_example <> None))
            row.cells)
        r.rows

let rows_equal = Campaign_check.rows_equal

let temp_checkpoint name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists path then Sys.remove path;
  path

let test_checkpoint_resume_bit_identical () =
  let path = temp_checkpoint "manroute_ckpt_full.tsv" in
  let fresh = Harness.Runner.run ~trials:5 ~seed:11 tiny_figure in
  let first = Harness.Runner.run ~trials:5 ~seed:11 ~checkpoint:path tiny_figure in
  check_bool "checkpointed run matches plain run" true (rows_equal fresh first);
  let resumed =
    Harness.Runner.run ~trials:5 ~seed:11 ~checkpoint:path tiny_figure
  in
  check_bool "fully resumed run bit-identical" true (rows_equal fresh resumed);
  Sys.remove path

let test_checkpoint_partial_resume () =
  let path = temp_checkpoint "manroute_ckpt_part.tsv" in
  let fresh = Harness.Runner.run ~trials:4 ~seed:13 tiny_figure in
  ignore (Harness.Runner.run ~trials:4 ~seed:13 ~checkpoint:path tiny_figure);
  (* Simulate a crash after the first row: keep it, then leave a torn
     half-written line with no newline, as a dying process would. *)
  let ic = open_in path in
  let first_line = input_line ic in
  close_in ic;
  let oc = open_out path in
  output_string oc (first_line ^ "\nrow\tv2\ttiny\t13\t4\t0x1p+");
  close_out oc;
  let resumed =
    Harness.Runner.run ~trials:4 ~seed:13 ~checkpoint:path tiny_figure
  in
  check_bool "partial resume bit-identical" true (rows_equal fresh resumed);
  (* The resumed run healed the sidecar: both rows load cleanly now. *)
  let key = { Harness.Checkpoint.figure_id = "tiny"; seed = 13; trials = 4 } in
  check_int "sidecar holds both rows" 2
    (List.length (Harness.Runner.load_rows ~path key));
  Sys.remove path

let test_checkpoint_key_mismatch_recomputes () =
  let path = temp_checkpoint "manroute_ckpt_key.tsv" in
  ignore (Harness.Runner.run ~trials:3 ~seed:17 ~checkpoint:path tiny_figure);
  (* A different trial count must not reuse these rows. *)
  let key3 = { Harness.Checkpoint.figure_id = "tiny"; seed = 17; trials = 3 }
  and key5 = { Harness.Checkpoint.figure_id = "tiny"; seed = 17; trials = 5 } in
  check_int "own key sees rows" 2 (List.length (Harness.Runner.load_rows ~path key3));
  check_int "other key sees none" 0 (List.length (Harness.Runner.load_rows ~path key5));
  let fresh5 = Harness.Runner.run ~trials:5 ~seed:17 tiny_figure in
  let via5 = Harness.Runner.run ~trials:5 ~seed:17 ~checkpoint:path tiny_figure in
  check_bool "recomputed, not reused" true (rows_equal fresh5 via5);
  Sys.remove path

let sample_stats =
  {
    Harness.Runner.failure_ratio = 0.5;
    error_ratio = 0.;
    norm_inv_power = 0.25;
    norm_stderr = 0.01;
    mean_power = None;
    mean_detour_hops = 0.;
    error_example = Some "multi\nline\tmessage";
    counters = Routing.Metrics.init (fun f -> String.length f.name);
    engine =
      List.mapi
        (fun i _ -> if i mod 3 = 1 then None else Some (float_of_int i +. 0.5))
        Harness.Runner.columns;
  }

let first_line path = In_channel.with_open_bin path In_channel.input_line

let test_checkpoint_corrupt_lines_tolerated () =
  let path = temp_checkpoint "manroute_ckpt_bad.tsv" in
  let key = { Harness.Checkpoint.figure_id = "tiny"; seed = 1; trials = 2 } in
  Harness.Runner.append_row ~path key { x = 2.; cells = [ ("XY", sample_stats) ] };
  let good = Option.get (first_line path) in
  (* Foreign lines (other format, another campaign's row) and a torn
     final line are tolerated... *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "not a row at all\n";
  output_string oc "row\tv0\tother\t1\t2\t0x1p+1\t0\tnorm\n";
  output_string oc "row\tv2\ttiny\t1\t2\t0x1p+";
  close_out oc;
  (match Harness.Runner.load_rows ~path key with
  | [ (x, [ ("XY", c) ]) ] ->
      check_float "x round-trips" 2. x;
      check_bool "cell round-trips, message included" true (c = sample_stats)
  | rows ->
      Alcotest.failf "expected exactly the one good row, got %d"
        (List.length rows));
  (* ...but a key-matching row that fails to parse anywhere before the
     final line is real corruption: the typed error must localize it by
     sidecar path and line number instead of silently recomputing. *)
  let bad =
    String.concat "\t"
      (List.mapi
         (fun i f -> if i = 5 then "not-a-float" else f)
         (String.split_on_char '\t' good))
  in
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc ("\n" ^ bad ^ "\n");
  output_string oc "trailing junk\n";
  close_out oc;
  (match Harness.Runner.load_rows ~path key with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Harness.Checkpoint.Corrupt { path = p; line; reason = _ } ->
      check_bool "corrupt path surfaced" true (p = path);
      check_int "corrupt line surfaced" 5 line;
      check_bool "printer names path and line" true
        (let m =
           Printexc.to_string
             (Harness.Checkpoint.Corrupt { path = p; line; reason = "r" })
         in
         contains_substring m path && contains_substring m "line 5"));
  Sys.remove path

(* QCheck: random rows round-trip bit for bit — absent columns, -0.,
   subnormals, infinities, NaN payloads, and messages carrying tabs,
   newlines and a leading "-" or "=". *)
let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ 0.; -0.; 5e-324; -5e-324; 2.2250738585072009e-308; infinity;
            neg_infinity; nan; -.nan; Int64.float_of_bits 0x7ff4000000000123L ];
        float;
      ])

let gen_msg =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 6)
         (oneofl [ "-"; "="; "\t"; "\n"; "\\"; "\""; "a"; " "; "\xff"; "=-" ])))

let gen_stats =
  QCheck.Gen.(
    let* f = array_size (return 5) gen_float in
    let* power = opt gen_float in
    let* error_example = opt gen_msg in
    let* counts = array_size (return (List.length Routing.Metrics.fields)) int in
    let+ engine =
      flatten_l (List.map (fun _ -> opt gen_float) Harness.Runner.columns)
    in
    {
      Harness.Runner.failure_ratio = f.(0);
      error_ratio = f.(1);
      norm_inv_power = f.(2);
      norm_stderr = f.(3);
      mean_power = power;
      mean_detour_hops = f.(4);
      error_example;
      counters =
        (let i = ref (-1) in
         Routing.Metrics.init (fun _ ->
             incr i;
             counts.(!i)));
      engine;
    })

let gen_row =
  QCheck.Gen.(
    let* x = gen_float in
    let+ cells =
      list_size (int_range 1 4)
        (pair (oneofl [ "XY"; "PR"; "SRV0"; "BEST" ]) gen_stats)
    in
    { Harness.Runner.x; cells })

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_opt a b = Option.equal same_bits a b

let same_stats (a : Harness.Runner.stats) (b : Harness.Runner.stats) =
  same_bits a.failure_ratio b.failure_ratio
  && same_bits a.error_ratio b.error_ratio
  && same_bits a.norm_inv_power b.norm_inv_power
  && same_bits a.norm_stderr b.norm_stderr
  && same_opt a.mean_power b.mean_power
  && same_bits a.mean_detour_hops b.mean_detour_hops
  && a.error_example = b.error_example
  && Routing.Metrics.equal a.counters b.counters
  && List.equal same_opt a.engine b.engine

let fuzz_key = { Harness.Checkpoint.figure_id = "fuzz"; seed = 3; trials = 2 }

let prop_checkpoint_round_trip =
  QCheck.Test.make ~name:"checkpoint rows round-trip bit for bit" ~count:200
    (QCheck.make gen_row)
    (fun (row : Harness.Runner.row) ->
      let path = temp_checkpoint "manroute_ckpt_fuzz.tsv" in
      Harness.Runner.append_row ~path fuzz_key row;
      let loaded = Harness.Runner.load_rows ~path fuzz_key in
      Sys.remove path;
      match loaded with
      | [ (x, cells) ] ->
          same_bits x row.x
          && List.equal
               (fun (n, a) (n', b) -> n = n' && same_stats a b)
               cells row.cells
      | _ -> false)

(* QCheck: a valid row torn at any byte, or with one field replaced by
   garbage, then followed by a valid row, loads, is skipped as foreign,
   or raises one of the two typed errors — never anything else. *)
let prop_checkpoint_damage_typed =
  let gen =
    QCheck.Gen.(
      triple gen_row (int_bound 1_000_000)
        (opt (oneofl [ ""; "-"; "="; "x"; "nan:zz"; "0x1p"; "v1"; "1e999"; "a,b" ])))
  in
  QCheck.Test.make ~name:"damaged checkpoint rows fail typed" ~count:300
    (QCheck.make gen)
    (fun (row, at, garbage) ->
      let path = temp_checkpoint "manroute_ckpt_damage.tsv" in
      Harness.Runner.append_row ~path fuzz_key row;
      let line = Option.get (first_line path) in
      let damaged =
        match garbage with
        | None -> String.sub line 0 (at mod String.length line)
        | Some g ->
            let fields = String.split_on_char '\t' line in
            let i = at mod List.length fields in
            String.concat "\t" (List.mapi (fun j f -> if j = i then g else f) fields)
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (damaged ^ "\n" ^ line ^ "\n"));
      let ok =
        match Harness.Runner.load_rows ~path fuzz_key with
        | _ -> true
        | exception (Harness.Checkpoint.Corrupt _ | Harness.Checkpoint.Mismatch _) ->
            true
      in
      Sys.remove path;
      ok)

(* ------------------------------------------------------------------ *)
(* Telemetry: env fallbacks, spans + trace files, counters, progress *)

(* Shared helper for the set-but-invalid environment fallbacks:
   MANROUTE_TRIALS and MANROUTE_JOBS must behave identically — warn on
   stderr (checked by eye; warn-once for jobs) and fall back, honor valid
   values. [Unix.putenv] cannot unset, so the empty string (also invalid)
   restores a variable that was absent. *)
let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match old with Some v -> v | None -> ""))
    f

let check_env_int_fallback var read ~fallback =
  List.iter
    (fun bad ->
      with_env var bad (fun () ->
          check_int
            (Printf.sprintf "%s=%S falls back" var bad)
            fallback (read ())))
    [ "not-a-number"; "0"; "-4"; "2.5" ];
  with_env var "3" (fun () ->
      check_int (var ^ " valid value honored") 3 (read ()))

let test_env_trials_fallback () =
  check_env_int_fallback "MANROUTE_TRIALS" Harness.Runner.default_trials
    ~fallback:150

let test_env_jobs_fallback () =
  check_env_int_fallback "MANROUTE_JOBS" Harness.Pool.default_jobs
    ~fallback:(Domain.recommended_domain_count ())

(* An empty MANROUTE_TRACE means "off"; an unwritable trace destination
   fails before the traced work runs instead of after it. *)
let test_env_destinations () =
  with_env "MANROUTE_TRACE" "" (fun () ->
      check_bool "empty MANROUTE_TRACE is unset" true
        (Harness.Telemetry.trace_file () = None));
  let ran = ref false in
  (match
     Harness.Telemetry.tracing (Some "/nonexistent/manroute/t.json") (fun () ->
         ran := true)
   with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  check_bool "unwritable trace fails before the run" false !ran

let test_pool_tick_counts_completions () =
  let ticks = Atomic.make 0 in
  let a =
    Harness.Pool.map ~tick:(fun () -> Atomic.incr ticks) ~jobs:4 50 Fun.id
  in
  check_int "all results" 50 (Array.length a);
  check_int "one tick per index" 50 (Atomic.get ticks)

let temp_trace name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists path then Sys.remove path;
  path

let test_trace_spans_nest_and_validate () =
  let path = temp_trace "manroute_trace_ok.json" in
  let sink = Harness.Telemetry.create () in
  check_bool "disabled by default" false (Harness.Telemetry.enabled ());
  Harness.Telemetry.install sink;
  Fun.protect ~finally:Harness.Telemetry.uninstall @@ fun () ->
  check_bool "enabled once installed" true (Harness.Telemetry.enabled ());
  (* Nested spans from several domains, plus a routing-hook span. *)
  let v =
    Harness.Telemetry.span ~cat:"outer" "outer" (fun () ->
        ignore
          (Harness.Pool.map ~jobs:3 8 (fun i ->
               Harness.Telemetry.span ~cat:"inner"
                 ~args:[ ("i", string_of_int i) ]
                 "inner"
                 (fun () -> Routing.Metrics.with_span "hooked" (fun () -> i))));
        17)
  in
  check_int "span returns the value" 17 v;
  check_bool "events recorded" true (Harness.Telemetry.event_count sink >= 17);
  let n = Harness.Telemetry.write_file sink path in
  (match Harness.Telemetry.validate_file path with
  | Ok m -> check_int "validator counts every event" n m
  | Error e -> Alcotest.failf "trace rejected: %s" e);
  Sys.remove path

let test_trace_validator_rejects_garbage () =
  let reject name text =
    let path = temp_trace ("manroute_trace_bad_" ^ name ^ ".json") in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    (match Harness.Telemetry.validate_file path with
    | Ok _ -> Alcotest.failf "%s should have been rejected" name
    | Error _ -> ());
    Sys.remove path
  in
  reject "not-json" "hello\n";
  reject "unbalanced" "[\n{\"name\":\"a\",\"ph\":\"X\"\n";
  reject "missing-ph" "[\n{\"name\":\"a\",\"ts\":1.0,\"dur\":2.0,\"tid\":0}\n]\n";
  (* Two same-thread spans that partially overlap cannot come from
     balanced instrumentation. *)
  reject "overlap"
    "[\n\
     {\"name\":\"a\",\"cat\":\"s\",\"ph\":\"X\",\"ts\":0.0,\"dur\":10.0,\"pid\":1,\"tid\":0},\n\
     {\"name\":\"b\",\"cat\":\"s\",\"ph\":\"X\",\"ts\":5.0,\"dur\":10.0,\"pid\":1,\"tid\":0}\n\
     ]\n"

let test_traced_campaign_matches_untraced () =
  (* Tracing must observe, never perturb: the same campaign with and
     without a sink yields bit-identical rows, and the trace holds the
     expected span hierarchy. *)
  let plain = Harness.Runner.run ~trials:4 ~seed:19 ~jobs:2 tiny_figure in
  let path = temp_trace "manroute_trace_campaign.json" in
  let traced =
    Harness.Telemetry.tracing (Some path) (fun () ->
        Harness.Runner.run ~trials:4 ~seed:19 ~jobs:2 tiny_figure)
  in
  check_bool "tracing does not change statistics" true
    (rows_equal plain traced);
  (match Harness.Telemetry.validate_file path with
  | Ok n ->
      (* 1 campaign + 2 rows + 8 trials + 48 heuristic + 48 evaluate
         spans at minimum. *)
      check_bool "all campaign spans present" true (n >= 107)
  | Error e -> Alcotest.failf "campaign trace rejected: %s" e);
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  List.iter
    (fun needle ->
      check_bool (needle ^ " span present") true
        (contains_substring text needle))
    [
      "\"campaign\""; "\"row\""; "\"trial\""; "\"heuristic\""; "\"evaluate\"";
      "\"XYI\"";
    ];
  Sys.remove path

let test_counters_deterministic_and_plausible () =
  let r1 = Harness.Runner.run ~trials:6 ~seed:23 ~jobs:1 tiny_figure in
  let r2 = Harness.Runner.run ~trials:6 ~seed:23 ~jobs:3 tiny_figure in
  List.iter2
    (fun (ra : Harness.Runner.row) (rb : Harness.Runner.row) ->
      List.iter2
        (fun (na, (sa : Harness.Runner.stats)) (_, (sb : Harness.Runner.stats)) ->
          check_bool (na ^ " counters jobs-invariant") true
            (Routing.Metrics.equal sa.counters sb.counters))
        ra.cells rb.cells)
    r1.rows r2.rows;
  List.iter
    (fun (row : Harness.Runner.row) ->
      let best = (List.assoc "BEST" row.cells).counters in
      List.iter
        (fun (name, (s : Harness.Runner.stats)) ->
          if name <> "BEST" then begin
            check_bool (name ^ " scored paths") true
              (s.counters.Routing.Metrics.paths_scored > 0);
            check_int (name ^ " one evaluation per trial") 6
              s.counters.Routing.Metrics.feasibility_checks;
            check_bool "BEST covers the whole trial" true
              (best.Routing.Metrics.paths_scored
              >= s.counters.Routing.Metrics.paths_scored)
          end)
        row.cells;
      check_bool "only PR expands DP cells" true
        ((List.assoc "PR" row.cells).counters.Routing.Metrics.dp_cells > 0
        && (List.assoc "XY" row.cells).counters.Routing.Metrics.dp_cells = 0))
    r1.rows

(* A v1 row (positional cells, before named columns) in the campaign's
   own sidecar does not resume: the loader raises the typed error naming
   the version, with path and line, instead of silently recomputing. *)
let v1_row =
  "row\tv1\ttiny\t1\t2\t0x1p+1\t1\tXY\t0x1p-1\t0x0p+0\t0x1p-2\t0x1p-7\t-\t0x0p+0\t-\n"

let test_checkpoint_v1_row_fails_fast () =
  let path = temp_checkpoint "manroute_ckpt_v1.tsv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc v1_row);
  let key = { Harness.Checkpoint.figure_id = "tiny"; seed = 1; trials = 2 } in
  (match Harness.Runner.load_rows ~path key with
  | _ -> Alcotest.fail "expected Mismatch"
  | exception (Harness.Checkpoint.Mismatch { path = p; line; found } as e) ->
      check_bool "version named" true (found = "v1");
      check_bool "offending path surfaced" true (p = path);
      check_int "offending line surfaced" 1 line;
      check_bool "printer names version and remedy" true
        (let m = Printexc.to_string e in
         contains_substring m "v1" && contains_substring m "delete"));
  Sys.remove path

(* The same v1 row under another campaign's key is filtered out before
   the version check: foreign sidecar lines never block a resume. *)
let test_checkpoint_v1_foreign_row_skipped () =
  let path = temp_checkpoint "manroute_ckpt_v1_foreign.tsv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc v1_row);
  let other = { Harness.Checkpoint.figure_id = "other"; seed = 1; trials = 2 } in
  check_bool "foreign keys skip the v1 row" true
    (Harness.Runner.load_rows ~path other = []);
  Sys.remove path

(* Fabricated observations with hand-picked powers, runtimes and counters:
   the raw material for the merge-determinism property and the quantile
   check. *)
let fabricated_obs i p =
  let h = List.nth Routing.Heuristic.all (i mod 6) in
  let solution = Routing.Solution.make Harness.Figure.mesh [] in
  let report =
    {
      Routing.Evaluate.feasible = true;
      total_power = p;
      static_power = p /. 7.;
      dynamic_power = p -. (p /. 7.);
      active_links = 1;
      max_load = p;
      overloaded = [];
      detour_hops = 0;
    }
  in
  let outcome = { Routing.Best.heuristic = h; solution; report } in
  Harness.Summary.observation ~pareto:[] ~outcomes:[ outcome ]
    ~best:(Some outcome)
    ~times:[ (h.Routing.Heuristic.name, p /. 1000.) ]
    ~counters:
      [
        ( h.Routing.Heuristic.name,
          {
            Routing.Metrics.paths_scored = i + 1;
            dp_cells = 2 * i;
            bb_nodes = 0;
            detour_searches = i mod 3;
            feasibility_checks = 1;
            delta_evals = 4 * i;
            pf_iterations = i mod 2;
            pf_rips = 3 * i;
            recover_events = i mod 5;
            recover_sheds = i mod 4;
            recover_rung_max = 5 * i;
          } );
      ]

let finalized_equal (a : Harness.Summary.t) (b : Harness.Summary.t) =
  (* Bit-equality on every float, structural on the counter blocks;
     [static_fraction] needs NaN-tolerant comparison. *)
  a.instances = b.instances
  && a.success_ratio = b.success_ratio
  && a.mean_inverse_power = b.mean_inverse_power
  && a.inverse_power_vs_xy = b.inverse_power_vs_xy
  && a.mean_runtime_ms = b.mean_runtime_ms
  && a.runtime_quantiles_ms = b.runtime_quantiles_ms
  && a.counters = b.counters
  && (a.static_fraction = b.static_fraction
     || (Float.is_nan a.static_fraction && Float.is_nan b.static_fraction))

let prop_summary_merge_bit_stable =
  QCheck.Test.make ~name:"sharded merge bit-matches sequential fold" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 40) (float_range 0.1 5000.))
           (int_range 0 40)))
    (fun (powers, cut) ->
      let obs = List.mapi fabricated_obs powers in
      let cut = min cut (List.length obs) in
      (* Sequential reference: one accumulator, fed in order. *)
      let seq = Harness.Summary.create () in
      List.iter (Harness.Summary.add seq) obs;
      (* Sharded: two worker accumulators, merged in shard order into a
         fresh one — the documented deterministic fold. *)
      let shard0 = Harness.Summary.create ()
      and shard1 = Harness.Summary.create ()
      and merged = Harness.Summary.create () in
      List.iteri
        (fun i o ->
          Harness.Summary.add (if i < cut then shard0 else shard1) o)
        obs;
      Harness.Summary.merge ~into:merged shard0;
      Harness.Summary.merge ~into:merged shard1;
      finalized_equal
        (Harness.Summary.finalize seq)
        (Harness.Summary.finalize merged))

let test_summary_quantiles_exact () =
  (* Ten runtimes 1..10 ms on one heuristic: nearest-rank p50 is the 5th
     value, p95 the 10th. *)
  let acc = Harness.Summary.create () in
  (* [fabricated_obs] records p/1000 seconds, i.e. p milliseconds. *)
  List.iter
    (fun ms -> Harness.Summary.add acc (fabricated_obs 0 ms))
    [ 7.; 2.; 9.; 4.; 1.; 10.; 3.; 8.; 5.; 6. ];
  let s = Harness.Summary.finalize acc in
  match s.Harness.Summary.runtime_quantiles_ms with
  | [ (_, (p50, p95)) ] ->
      check_float "p50 exact" 5. p50;
      check_float "p95 exact" 10. p95
  | q -> Alcotest.failf "expected one quantile entry, got %d" (List.length q)

let test_progress_line_accounting () =
  let dev_null = open_out (if Sys.win32 then "NUL" else "/dev/null") in
  let p =
    Harness.Telemetry.Progress.create ~out:dev_null ~label:"tiny" ~rows:2
      ~total:20 ()
  in
  (* Exercised from several domains like the real campaign does. *)
  ignore
    (Harness.Pool.map
       ~tick:(fun () -> Harness.Telemetry.Progress.tick p)
       ~jobs:3 10 Fun.id);
  Harness.Telemetry.Progress.row p;
  Harness.Telemetry.Progress.error p;
  Harness.Telemetry.Progress.advance p 10;
  Harness.Telemetry.Progress.row p;
  Harness.Telemetry.Progress.finish p;
  close_out dev_null

let test_progress_resumed_only_line () =
  (* A campaign that resumed every completed trial so far has no live
     rate to divide by: the line must say so instead of printing an
     inf/nan ETA. *)
  let path = Filename.temp_file "manroute-progress" ".txt" in
  let out = open_out path in
  let p =
    Harness.Telemetry.Progress.create ~out ~label:"resumed" ~rows:2 ~total:20
      ()
  in
  Harness.Telemetry.Progress.advance p 10;
  close_out out;
  let painted =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  check_bool "paints the resumed marker" true
    (contains_substring painted "resumed (no live rate yet)");
  check_bool "no inf/nan ETA" true
    (not
       (contains_substring painted "inf" || contains_substring painted "nan"))

let test_exposed_quantiles_match_rule () =
  (* The exported helper follows the same nearest-rank rule as the
     runtime quantiles, over a copy (input untouched), (0,0) on empty. *)
  let values = [| 7.; 2.; 9.; 4.; 1.; 10.; 3.; 8.; 5.; 6. |] in
  let copy = Array.copy values in
  let p50, p95 = Harness.Summary.quantiles values in
  check_float "p50 exact" 5. p50;
  check_float "p95 exact" 10. p95;
  check_bool "input not mutated" true (values = copy);
  let z50, z95 = Harness.Summary.quantiles [||] in
  check_float "empty p50" 0. z50;
  check_float "empty p95" 0. z95

(* ------------------------------------------------------------------ *)
(* DESIGN.md: section 3 lists each lib/ directory's modules (one per
   .mli), section 4 gives every catalogue entry's command. *)

(* The lines under the "## n." heading, up to the next "## " heading. *)
let design_section n =
  let lines =
    String.split_on_char '\n' (Campaign_check.read_file "../DESIGN.md")
  in
  let heading = Printf.sprintf "## %d." n in
  let rec skip = function
    | [] -> []
    | l :: tl -> if String.starts_with ~prefix:heading l then take tl else skip tl
  and take = function
    | [] -> []
    | l :: tl -> if String.starts_with ~prefix:"## " l then [] else l :: take tl
  in
  skip lines

let test_design_matches_code () =
  (* Section 3 rows read "lib/DIR  TAG  Mod, Mod, ..."; indented lines
     continue the row above. *)
  let listed = Hashtbl.create 8 and current = ref None in
  List.iter
    (fun line ->
      let words =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char ',')
        |> List.filter (( <> ) "")
      in
      match (words, !current) with
      | dir :: _tag :: mods, _ when String.starts_with ~prefix:"lib/" dir ->
          let dir = String.sub dir 4 (String.length dir - 4) in
          current := Some dir;
          Hashtbl.replace listed dir mods
      | _ :: _, Some dir when line.[0] = ' ' ->
          Hashtbl.replace listed dir (Hashtbl.find listed dir @ words)
      | _ -> current := None)
    (design_section 3);
  Array.iter
    (fun dir ->
      let present =
        Sys.readdir (Filename.concat "../lib" dir)
        |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".mli")
        |> List.map (fun f ->
               String.capitalize_ascii (Filename.chop_suffix f ".mli"))
      in
      let listed = Option.value ~default:[] (Hashtbl.find_opt listed dir) in
      Alcotest.(check (list string))
        ("DESIGN.md section 3 lists lib/" ^ dir)
        (List.sort compare present) (List.sort compare listed))
    (Sys.readdir "../lib");
  let index = String.concat "\n" (design_section 4) in
  List.iter
    (fun (e : Harness.Experiment.t) ->
      check_bool
        ("DESIGN.md section 4 runs " ^ e.id)
        true
        (Campaign_check.contains index ("`manroute experiment " ^ e.id ^ "`")))
    Harness.Experiment.all

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "harness"
    [
      ( "figures",
        [
          quick "registered" test_figures_registered;
          quick "generators obey specs" test_generators_obey_specs;
        ] );
      ( "runner",
        [
          quick "bookkeeping" test_runner_bookkeeping;
          quick "deterministic" test_runner_deterministic;
          quick "jobs invariant" test_runner_jobs_invariant;
        ] );
      ( "pool",
        [
          quick "map orders results" test_pool_map_orders_results;
          quick "map propagates exceptions" test_pool_map_propagates_exceptions;
          quick "summary merge" test_summary_merge_matches_sequential;
          quick "tick counts completions" test_pool_tick_counts_completions;
          quick "reuse keeps memory flat" test_pool_reuse_keeps_memory_flat;
          quick "nested map completes" test_pool_nested_map_completes;
          quick "exception then reuse" test_pool_exception_then_reuse;
          quick "helper spans reach a fresh sink"
            test_pool_helper_spans_reach_fresh_sink;
        ] );
      ( "telemetry",
        [
          quick "env trials fallback" test_env_trials_fallback;
          quick "env jobs fallback" test_env_jobs_fallback;
          quick "env destinations" test_env_destinations;
          quick "spans nest and validate" test_trace_spans_nest_and_validate;
          quick "validator rejects garbage" test_trace_validator_rejects_garbage;
          quick "traced campaign matches untraced"
            test_traced_campaign_matches_untraced;
          quick "counters deterministic" test_counters_deterministic_and_plausible;
          quick "checkpoint v1 row fails fast" test_checkpoint_v1_row_fails_fast;
          quick "checkpoint v1 foreign row skipped"
            test_checkpoint_v1_foreign_row_skipped;
          quick "quantiles exact" test_summary_quantiles_exact;
          quick "exposed quantiles follow the rule"
            test_exposed_quantiles_match_rule;
          quick "progress accounting" test_progress_line_accounting;
          quick "progress resumed-only line" test_progress_resumed_only_line;
          QCheck_alcotest.to_alcotest prop_summary_merge_bit_stable;
        ] );
      ( "render",
        [
          quick "csv shape" test_csv_shape;
          quick "write csv" test_write_csv;
          quick "pp result smoke" test_pp_result_smoke;
          quick "summary pp smoke" test_summary_pp_smoke;
          quick "stderr sane" test_stderr_sane;
        ] );
      ("summary", [ quick "ratios" test_summary_ratios ]);
      ( "heatmap",
        [
          quick "shape and symbols" test_heatmap_shape_and_symbols;
          quick "busier direction" test_heatmap_uses_busier_direction;
          quick "single row" test_heatmap_single_row;
        ] );
      ( "problem",
        [
          quick "roundtrip" test_problem_roundtrip;
          quick "comments and blanks" test_problem_comments_and_blanks;
          quick "errors" test_problem_errors;
        ] );
      ("docs", [ quick "design matches the code" test_design_matches_code ]);
      ( "crash safety",
        [
          quick "isolates heuristic errors" test_runner_isolates_heuristic_errors;
          quick "fault figure campaign" test_fault_figure_campaign;
          quick "checkpoint full resume" test_checkpoint_resume_bit_identical;
          quick "checkpoint partial resume" test_checkpoint_partial_resume;
          quick "checkpoint key mismatch" test_checkpoint_key_mismatch_recomputes;
          quick "checkpoint corrupt lines" test_checkpoint_corrupt_lines_tolerated;
          QCheck_alcotest.to_alcotest prop_checkpoint_round_trip;
          QCheck_alcotest.to_alcotest prop_checkpoint_damage_typed;
        ] );
    ]
