(* figures: regenerate every simulation figure of the paper to CSV plus an
   ASCII rendering on stdout. Output directory: first argument, default
   ./results; worker domains: second argument (a positive integer),
   default MANROUTE_JOBS or the core count. Trials per point:
   MANROUTE_TRIALS (default 150).
   MANROUTE_TRACE=FILE records the whole run as a Chrome trace;
   MANROUTE_PROGRESS=1 keeps a live progress line on stderr;
   MANROUTE_AUDIT=DIR appends per-figure JSON audit records (worst-power,
   errored and shedding trials) under DIR.

   The campaign is crash-safe: each figure checkpoints its completed rows
   to <dir>/checkpoint.tsv, so a killed run resumes where it stopped with
   bit-identical rows (the cross-figure summary then covers only the
   freshly computed rows). Delete the sidecar to force a full recompute. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "results" in
  let jobs =
    if Array.length Sys.argv <= 2 then None
    else
      match int_of_string_opt Sys.argv.(2) with
      | Some j when j > 0 -> Some j
      | _ ->
          Printf.eprintf "error: JOBS must be a positive integer, got %S\n"
            Sys.argv.(2);
          exit 1
  in
  Format.printf "trials/point: %d, jobs: %d@."
    (Harness.Runner.default_trials ())
    (match jobs with Some j -> j | None -> Harness.Pool.default_jobs ());
  Harness.Runner.exit_on_error @@ fun () ->
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let checkpoint = Filename.concat dir "checkpoint.tsv" in
  let acc = Harness.Summary.create () in
  Harness.Telemetry.tracing (Harness.Telemetry.trace_file ())
  @@ fun () ->
  List.iter
    (fun figure ->
      let progress =
        if not (Harness.Telemetry.progress_enabled ()) then None
        else
          let rows = List.length figure.Harness.Figure.xs in
          Some
            (Harness.Telemetry.Progress.create
               ~label:figure.Harness.Figure.id ~rows
               ~total:(rows * Harness.Runner.default_trials ())
               ())
      in
      let r =
        Harness.Runner.run ?jobs ~summary:acc ~checkpoint ?progress
          ?audit:(Harness.Audit.audit_dir ())
          figure
      in
      Option.iter Harness.Telemetry.Progress.finish progress;
      Format.printf "%a@." Harness.Render.pp_result r;
      let path = Harness.Render.write_csv ~dir r in
      Format.printf "-> %s@.@." path)
    Harness.Figure.all;
  Format.printf "-> %s (campaign checkpoint; delete to recompute)@.@."
    checkpoint;
  Format.printf "%a@." Harness.Summary.pp (Harness.Summary.finalize acc)
