(* Bechamel micro-benchmarks: one test per figure (the per-instance
   routing pipeline on that figure's workload), one per heuristic, and one
   each for the Theorem 1 construction and the Frank-Wolfe solver. The
   reproduction tables are [manroute experiment all]. *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let bechamel_part () =
  let open Bechamel in
  let open Toolkit in
  section "Micro-benchmarks (Bechamel, one test per figure + per heuristic)";
  let mesh = Noc.Mesh.square 8 in
  let model = Power.Model.kim_horowitz in
  (* One Test.make per figure: full per-instance pipeline (generate + all
     heuristics + BEST) on a representative x of that figure. *)
  let per_figure =
    List.map
      (fun figure ->
        let x = List.nth figure.Harness.Figure.xs (List.length figure.Harness.Figure.xs / 2) in
        let rng = Traffic.Rng.create 1234 in
        Test.make
          ~name:(Printf.sprintf "%s(x=%g)" figure.Harness.Figure.id x)
          (Staged.stage (fun () ->
               let comms = figure.Harness.Figure.generate rng x in
               ignore (Routing.Best.route model mesh comms))))
      Harness.Figure.all
  in
  let fixed_comms =
    let rng = Traffic.Rng.create 888 in
    Traffic.Workload.uniform rng mesh ~n:40 ~weight:Traffic.Workload.mixed
  in
  let per_heuristic =
    List.map
      (fun (h : Routing.Heuristic.t) ->
        Test.make ~name:("heuristic:" ^ h.name)
          (Staged.stage (fun () -> ignore (h.run model mesh fixed_comms))))
      Routing.Heuristic.all
  in
  let theory_tests =
    [
      Test.make ~name:"thm1-construction(p'=8)"
        (Staged.stage (fun () ->
             ignore
               (Theory.Construction_thm1.power (Power.Model.theory ()) ~p':8
                  ~total:1.)));
      Test.make ~name:"frank-wolfe(6x6,10comms,50it)"
        (Staged.stage
           (let mesh6 = Noc.Mesh.square 6 in
            let rng = Traffic.Rng.create 3 in
            let comms =
              Traffic.Workload.uniform rng mesh6 ~n:10
                ~weight:Traffic.Workload.small
            in
            fun () ->
              ignore
                (Optim.Frank_wolfe.solve ~iterations:50
                   Power.Model.kim_horowitz_continuous mesh6 comms)));
    ]
  in
  let tests = per_figure @ per_heuristic @ theory_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.sprintf "%12.1f ns/run" est
            | _ -> "          n/a"
          in
          Format.printf "  %-32s %s@." name ns)
        analysis)
    (List.map (fun t -> Test.make_grouped ~name:"g" [ t ]) tests)

let () = bechamel_part ()
