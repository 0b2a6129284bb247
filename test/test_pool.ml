(* The worker pool past the runtime's domain cap. In an executable of its
   own: the call leaves every helper it managed to spawn parked for the
   rest of the process. *)

let test_jobs_past_domain_cap () =
  Alcotest.(check (array int))
    "index-ordered results" (Array.init 300 Fun.id)
    (Harness.Pool.map ~jobs:200 300 Fun.id)

let () =
  Alcotest.run "pool"
    [
      ( "domain cap",
        [
          Alcotest.test_case "jobs 200 runs on the helpers it gets" `Quick
            test_jobs_past_domain_cap;
        ] );
    ]
