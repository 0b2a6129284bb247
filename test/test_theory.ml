(* Tests for the Section 4 artifacts: Lemma 1 counting, the Figure 2
   example, the Theorem 1 flow construction (including flow conservation),
   the Lemma 2 instance against its closed forms, and the NP gadget. *)

let coord row col = Noc.Coord.make ~row ~col
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Counting *)

let test_binomial_values () =
  check_int "C(4,2)" 6 (Theory.Counting.binomial 4 2);
  check_int "C(14,7)" 3432 (Theory.Counting.binomial 14 7);
  check_int "C(5,0)" 1 (Theory.Counting.binomial 5 0);
  check_int "C(5,5)" 1 (Theory.Counting.binomial 5 5);
  Alcotest.check_raises "negative" (Invalid_argument "Counting.binomial")
    (fun () -> ignore (Theory.Counting.binomial 3 5))

(* Exact whenever the result fits in an int — C(62,31) is the 32x32
   corner-to-corner path count — and a typed error beyond. *)
let test_binomial_exact_to_max_int () =
  check_int "C(62,31)" 465428353255261088 (Theory.Counting.binomial 62 31);
  check_int "32x32 grid paths" 465428353255261088
    (Theory.Counting.grid_paths ~rows:32 ~cols:32);
  check_int "C(64,32)" 1832624140942590534 (Theory.Counting.binomial 64 32);
  check_int "C(64,1)" 64 (Theory.Counting.binomial 64 1);
  Alcotest.check_raises "C(66,33) does not fit"
    (Invalid_argument "binomial: C(66,33) overflows int") (fun () ->
      ignore (Theory.Counting.binomial 66 33))

let prop_lemma1_closed_form_equals_recurrence =
  QCheck.Test.make ~name:"Lemma 1: binomial = N(u,v) recurrence" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range 1 12) (int_range 1 12)))
    (fun (rows, cols) ->
      Theory.Counting.grid_paths ~rows ~cols
      = Theory.Counting.grid_paths_recurrence ~rows ~cols)

let prop_lemma1_matches_enumeration =
  QCheck.Test.make ~name:"Lemma 1: closed form = path enumeration" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 1 6) (int_range 1 6)))
    (fun (rows, cols) ->
      Theory.Counting.grid_paths ~rows ~cols
      = Noc.Path.fold_all
          (fun n _ -> n + 1)
          0 ~src:(coord 1 1) ~snk:(coord rows cols))

let test_max_mp_paths () =
  let c =
    Traffic.Communication.make ~id:0 ~src:(coord 2 2) ~snk:(coord 5 6) ~rate:1.
  in
  check_int "rect paths" (Theory.Counting.binomial 7 3)
    (Theory.Counting.max_mp_paths c)

(* ------------------------------------------------------------------ *)
(* Figure 2 *)

let test_fig2_powers () =
  let pxy, p1, p2 = Theory.Example_fig2.powers () in
  check_float "XY" 128. pxy;
  check_float "1-MP" 56. p1;
  check_float "2-MP" 32. p2

(* ------------------------------------------------------------------ *)
(* Theorem 1 construction *)

(* Net flow at each core: out - in must be +K at (1,1), -K at (p,p) and 0
   elsewhere — the construction is a genuine routing of K units. *)
let net_flow loads mesh core =
  let inflow = ref 0. and outflow = ref 0. in
  let get src dst =
    Noc.Load.get loads (Noc.Mesh.link_id mesh (Noc.Mesh.link ~src ~dst))
  in
  List.iter
    (fun nb ->
      outflow := !outflow +. get core nb;
      inflow := !inflow +. get nb core)
    (Noc.Mesh.neighbors mesh core);
  !outflow -. !inflow

let test_thm1_flow_conservation () =
  List.iter
    (fun p' ->
      let p = 2 * p' in
      let mesh = Noc.Mesh.square p in
      let k = 10. in
      let loads = Theory.Construction_thm1.loads ~p' ~total:k in
      Array.iter
        (fun core ->
          let f = net_flow loads mesh core in
          if Noc.Coord.equal core (coord 1 1) then
            check_float "source emits K" k f
          else if Noc.Coord.equal core (coord p p) then
            check_float "sink absorbs K" (-.k) f
          else check_float "interior conserved" 0. f)
        (Noc.Mesh.all_cores mesh))
    [ 1; 2; 3; 5 ]

let test_thm1_ratio_grows_linearly () =
  let model = Power.Model.theory () in
  let ratio p' = Theory.Construction_thm1.ratio model ~p' ~total:1. in
  (* Ratios increase and scale roughly linearly in p (Theta(p)). *)
  check_bool "monotone" true (ratio 4 > ratio 2 && ratio 8 > ratio 4);
  let r8 = ratio 8 and r16 = ratio 16 in
  check_bool "near-linear doubling" true (r16 /. r8 > 1.7 && r16 /. r8 < 2.3)

let test_thm1_power_bounded_constant () =
  (* Pmax of the construction is O(K^alpha) independent of p: the proof
     bounds it by 2 K^alpha (1 + (1 - 1/p')) * ... <= 4 K^alpha per half. *)
  let model = Power.Model.theory () in
  List.iter
    (fun p' ->
      let pw = Theory.Construction_thm1.power model ~p' ~total:1. in
      check_bool "bounded by 8 K^alpha" true (pw <= 8.))
    [ 1; 2; 4; 8; 16 ]

(* Theorem 2's upper bound on XY: P_XY <= 2 * 2^alpha * sum over the four
   directions and diagonals of (K^(d)_k)^alpha (dynamic, continuous). We
   check the inequality on random instances — the executable version of the
   proof's relaxation argument. *)
let prop_thm2_xy_upper_bound =
  QCheck.Test.make ~name:"Theorem 2: P_XY below the proof's diagonal bound"
    ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let alpha = 3. in
      let model = Power.Model.theory ~alpha () in
      let mesh = Noc.Mesh.square 6 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:10
          ~weight:(Traffic.Workload.weight ~lo:1. ~hi:10.)
      in
      let xy = Routing.Xy.route mesh comms in
      let report = Routing.Evaluate.solution model xy in
      let p = Noc.Mesh.rows mesh and q = Noc.Mesh.cols mesh in
      let bound = ref 0. in
      List.iter
        (fun d ->
          for k = 1 to p + q - 2 do
            let kd =
              List.fold_left
                (fun acc (c : Traffic.Communication.t) ->
                  if Noc.Quadrant.equal (Traffic.Communication.quadrant c) d
                  then begin
                    let ks = Noc.Quadrant.diag_index ~rows:p ~cols:q d c.src
                    and kk = Noc.Quadrant.diag_index ~rows:p ~cols:q d c.snk in
                    if ks <= k && k < kk then acc +. c.rate else acc
                  end
                  else acc)
                0. comms
            in
            bound := !bound +. Float.pow kd alpha
          done)
        Noc.Quadrant.all;
      report.Routing.Evaluate.dynamic_power
      <= (2. *. Float.pow 2. alpha *. !bound) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Lemma 2 *)

let test_lem2_closed_forms () =
  (* The paper states the asymptotic forms P_XY ~ 2 sum i^alpha and
     P_YX ~ p'(p'+1); exactly, the XY routing loads the row-1 hop into
     column v+1 with v units and the column-(p'+1) hop out of row u with
     p'-u units, and the YX routing uses p'^2 disjoint unit links. *)
  let alpha = 3. in
  let model = Power.Model.theory ~alpha () in
  List.iter
    (fun p' ->
      let pxy, pyx = Theory.Construction_lem2.powers model ~p' in
      let pow i = Float.pow (float_of_int i) alpha in
      let sum n = List.fold_left (fun acc i -> acc +. pow (i + 1)) 0. (List.init n Fun.id) in
      check_float "P_XY closed form" (sum p' +. sum (p' - 1)) pxy;
      check_float "P_YX closed form" (float_of_int (p' * p')) pyx)
    [ 1; 2; 3; 5; 9 ]

let test_lem2_feasibility_matters () =
  (* Under the real Kim-Horowitz model with unit = 1 Mb/s the loads are
     tiny, both routings are feasible and the ratio still grows. *)
  let model = Power.Model.theory () in
  let r4 = Theory.Construction_lem2.ratio model ~p':4
  and r8 = Theory.Construction_lem2.ratio model ~p':8 in
  check_bool "grows" true (r8 > r4)

let test_lem2_xy_is_dimension_ordered () =
  let _, comms = Theory.Construction_lem2.instance ~p':4 in
  check_int "four comms" 4 (List.length comms);
  List.iter
    (fun (c : Traffic.Communication.t) ->
      check_int "source row 1" 1 c.src.Noc.Coord.row;
      check_int "sink col p'+1" 5 c.snk.Noc.Coord.col)
    comms

(* ------------------------------------------------------------------ *)
(* NP gadget *)

let test_gadget_shape () =
  let g = Theory.Np_gadget.build ~s:2 [| 2; 2; 2; 2 |] in
  check_int "rows" 2 (Noc.Mesh.rows g.Theory.Np_gadget.mesh);
  check_int "cols" 6 (Noc.Mesh.cols g.Theory.Np_gadget.mesh);
  check_float "bandwidth" 8. g.Theory.Np_gadget.bandwidth;
  check_int "comm count" (4 + 6) (List.length g.Theory.Np_gadget.comms)

let test_gadget_build_validation () =
  Alcotest.check_raises "odd sum" (Invalid_argument "Np_gadget.build: odd sum")
    (fun () -> ignore (Theory.Np_gadget.build ~s:2 [| 1; 2 |]));
  Alcotest.check_raises "s too small" (Invalid_argument "Np_gadget.build: s < 2")
    (fun () -> ignore (Theory.Np_gadget.build ~s:1 [| 2; 2 |]))

let test_find_partition () =
  check_bool "solvable" true
    (Theory.Np_gadget.find_partition [| 3; 5; 4; 2 |] <> None);
  check_bool "unsolvable" true
    (Theory.Np_gadget.find_partition [| 1; 1; 8; 2 |] = None);
  match Theory.Np_gadget.find_partition [| 3; 5; 4; 2 |] with
  | Some subset ->
      let sum =
        Array.to_list subset
        |> List.mapi (fun i b -> if b then [| 3; 5; 4; 2 |].(i) else 0)
        |> List.fold_left ( + ) 0
      in
      check_int "half sum" 7 sum
  | None -> Alcotest.fail "partition exists"

let test_gadget_witness_saturates () =
  (* With s >= min_s, the witness built from a valid partition is feasible
     and saturates every vertical link exactly (the proof's key property). *)
  let values = [| 3; 5; 4; 2 |] in
  let s = Theory.Np_gadget.min_s values in
  let g = Theory.Np_gadget.build ~s values in
  match Theory.Np_gadget.find_partition values with
  | None -> Alcotest.fail "partition exists"
  | Some subset ->
      let sol = Theory.Np_gadget.solution_of_partition g subset in
      let r = Routing.Evaluate.solution (Theory.Np_gadget.model g) sol in
      check_bool "feasible" true r.Routing.Evaluate.feasible;
      let loads = Routing.Solution.loads sol in
      let q = Noc.Mesh.cols g.Theory.Np_gadget.mesh in
      for col = 1 to q do
        check_float "vertical link saturated" g.Theory.Np_gadget.bandwidth
          (Noc.Load.get loads
             (Noc.Mesh.link_id g.Theory.Np_gadget.mesh
                (Noc.Mesh.link ~src:(coord 1 col) ~dst:(coord 2 col))))
      done

let test_gadget_bad_partition_is_infeasible () =
  (* An unbalanced indicator must overload one of the last two columns. *)
  let values = [| 3; 5; 4; 2 |] in
  let s = Theory.Np_gadget.min_s values in
  let g = Theory.Np_gadget.build ~s values in
  let all_left = Array.make 4 true in
  let sol = Theory.Np_gadget.solution_of_partition g all_left in
  let r = Routing.Evaluate.solution (Theory.Np_gadget.model g) sol in
  check_bool "infeasible" false r.Routing.Evaluate.feasible

let prop_gadget_equivalence =
  QCheck.Test.make
    ~name:"witness feasibility equals 2-partition solvability (s >= min_s)"
    ~count:40
    (QCheck.make
       QCheck.Gen.(list_size (int_range 2 6) (int_range 1 9)))
    (fun values_list ->
      let values = Array.of_list values_list in
      let sum = Array.fold_left ( + ) 0 values in
      QCheck.assume (sum mod 2 = 0);
      let s = Theory.Np_gadget.min_s values in
      let g = Theory.Np_gadget.build ~s values in
      match Theory.Np_gadget.find_partition values with
      | Some subset ->
          let sol = Theory.Np_gadget.solution_of_partition g subset in
          let r = Routing.Evaluate.solution (Theory.Np_gadget.model g) sol in
          Theory.Np_gadget.solvable g && r.Routing.Evaluate.feasible
      | None -> not (Theory.Np_gadget.solvable g))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "theory"
    [
      ( "lemma 1",
        [
          quick "binomial values" test_binomial_values;
          quick "binomial exact up to max_int" test_binomial_exact_to_max_int;
          QCheck_alcotest.to_alcotest prop_lemma1_closed_form_equals_recurrence;
          QCheck_alcotest.to_alcotest prop_lemma1_matches_enumeration;
          quick "max-MP path bound" test_max_mp_paths;
        ] );
      ("figure 2", [ quick "powers" test_fig2_powers ]);
      ( "theorem 1",
        [
          quick "flow conservation" test_thm1_flow_conservation;
          quick "ratio grows linearly" test_thm1_ratio_grows_linearly;
          quick "construction power bounded" test_thm1_power_bounded_constant;
          QCheck_alcotest.to_alcotest prop_thm2_xy_upper_bound;
        ] );
      ( "lemma 2",
        [
          quick "closed forms" test_lem2_closed_forms;
          quick "ratio grows" test_lem2_feasibility_matters;
          quick "instance shape" test_lem2_xy_is_dimension_ordered;
        ] );
      ( "np gadget",
        [
          quick "shape" test_gadget_shape;
          quick "validation" test_gadget_build_validation;
          quick "2-partition solver" test_find_partition;
          quick "witness saturates" test_gadget_witness_saturates;
          quick "bad partition infeasible" test_gadget_bad_partition_is_infeasible;
          QCheck_alcotest.to_alcotest prop_gadget_equivalence;
        ] );
    ]
