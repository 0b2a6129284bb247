(* Tests for the mesh/topology substrate: coordinates, quadrants, link
   identifiers, diagonals, Manhattan paths and load accounting. *)

let coord row col = Noc.Coord.make ~row ~col

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Coord *)

let test_coord_basics () =
  let a = coord 2 3 and b = coord 2 3 and c = coord 3 2 in
  check_bool "equal" true (Noc.Coord.equal a b);
  check_bool "not equal" false (Noc.Coord.equal a c);
  check_int "manhattan" 2 (Noc.Coord.manhattan a c);
  check_int "manhattan self" 0 (Noc.Coord.manhattan a a);
  check_int "compare row major" (-1) (Noc.Coord.compare a c);
  Alcotest.(check string) "pp" "(2,3)" (Noc.Coord.to_string a)

(* ------------------------------------------------------------------ *)
(* Quadrant *)

let test_quadrant_of_endpoints () =
  let open Noc.Quadrant in
  let q src snk = to_int (of_endpoints ~src ~snk) in
  check_int "down-right" 1 (q (coord 1 1) (coord 3 3));
  check_int "down-left" 2 (q (coord 1 3) (coord 3 1));
  check_int "up-left" 3 (q (coord 3 3) (coord 1 1));
  check_int "up-right" 4 (q (coord 3 1) (coord 1 3));
  (* Paper tie-breaks: <= goes to the smaller direction index. *)
  check_int "pure right is D1" 1 (q (coord 2 1) (coord 2 4));
  check_int "pure down is D1" 1 (q (coord 1 2) (coord 4 2));
  check_int "pure left is D2" 2 (q (coord 2 4) (coord 2 1));
  check_int "pure up is D4" 4 (q (coord 4 2) (coord 1 2))

let test_quadrant_steps () =
  let open Noc.Quadrant in
  List.iter
    (fun d ->
      check_int "row step magnitude" 1 (abs (row_step d));
      check_int "col step magnitude" 1 (abs (col_step d)))
    all;
  check_int "D1 row" 1 (row_step D1);
  check_int "D2 col" (-1) (col_step D2);
  check_int "D3 row" (-1) (row_step D3);
  check_int "D4 col" 1 (col_step D4)

let test_diag_index_paper_formulas () =
  (* Check the four formulas on a 3x4 mesh core by core. *)
  let rows = 3 and cols = 4 in
  for u = 1 to rows do
    for v = 1 to cols do
      let idx d = Noc.Quadrant.diag_index ~rows ~cols d (coord u v) in
      check_int "D1" (u + v - 1) (idx Noc.Quadrant.D1);
      check_int "D2" (u + cols - v) (idx Noc.Quadrant.D2);
      check_int "D3" (rows - u + cols - v + 1) (idx Noc.Quadrant.D3);
      check_int "D4" (rows - u + v) (idx Noc.Quadrant.D4)
    done
  done

let test_diag_index_advances_along_path () =
  (* Along any Manhattan path, the diagonal index of the path's quadrant
     advances by exactly one per hop. *)
  let rows = 5 and cols = 6 in
  let src = coord 4 1 and snk = coord 1 5 in
  let d = Noc.Quadrant.of_endpoints ~src ~snk in
  let path = Noc.Path.xy ~src ~snk in
  let cores = Noc.Path.cores path in
  Array.iteri
    (fun i c ->
      check_int "diag advance"
        (Noc.Quadrant.diag_index ~rows ~cols d src + i)
        (Noc.Quadrant.diag_index ~rows ~cols d c))
    cores

(* ------------------------------------------------------------------ *)
(* Mesh *)

let test_mesh_counts () =
  let m = Noc.Mesh.create ~rows:3 ~cols:5 in
  check_int "cores" 15 (Noc.Mesh.num_cores m);
  check_int "links" ((2 * 3 * 4) + (2 * 2 * 5)) (Noc.Mesh.num_links m);
  let m1 = Noc.Mesh.create ~rows:1 ~cols:4 in
  check_int "1-row links" 6 (Noc.Mesh.num_links m1)

let test_mesh_create_invalid () =
  Alcotest.check_raises "zero rows" (Invalid_argument "Mesh.create: 0x3")
    (fun () -> ignore (Noc.Mesh.create ~rows:0 ~cols:3));
  (* The link count of a 4e9 x 4e9 mesh overflows an int; one that fits an
     int but not an array is just as unusable. *)
  List.iter
    (fun (rows, cols) ->
      Alcotest.check_raises
        (Printf.sprintf "%dx%d" rows cols)
        (Invalid_argument
           (Printf.sprintf "Mesh.create: %dx%d has too many links" rows cols))
        (fun () -> ignore (Noc.Mesh.create ~rows ~cols)))
    [
      (4_000_000_000, 4_000_000_000);
      (Sys.max_array_length, 1);
      (1, Sys.max_array_length / 2);
    ];
  let m = Noc.Mesh.create ~rows:1 ~cols:(Sys.max_array_length / 4) in
  check_int "largest one-row mesh" (Sys.max_array_length / 4)
    (Noc.Mesh.num_cores m)

let test_link_id_bijection () =
  List.iter
    (fun (rows, cols) ->
      let m = Noc.Mesh.create ~rows ~cols in
      let n = Noc.Mesh.num_links m in
      let seen = Array.make (max 1 n) false in
      Noc.Mesh.iter_links m (fun id l ->
          check_int "roundtrip" id (Noc.Mesh.link_id m l);
          check_bool "fresh" false seen.(id);
          seen.(id) <- true);
      check_int "all covered" n
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen))
    [ (4, 7); (1, 4); (5, 1); (1, 1); (2, 2) ]

let test_link_id_rejects_foreign () =
  let m = Noc.Mesh.square 3 in
  Alcotest.check_raises "diagonal hop"
    (Invalid_argument "Mesh.link_id: (1,1)->(2,2) not in 3x3 mesh")
    (fun () ->
      ignore (Noc.Mesh.link_id m (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 2 2))))

let test_neighbors () =
  let m = Noc.Mesh.square 3 in
  check_int "corner" 2 (List.length (Noc.Mesh.neighbors m (coord 1 1)));
  check_int "edge" 3 (List.length (Noc.Mesh.neighbors m (coord 1 2)));
  check_int "center" 4 (List.length (Noc.Mesh.neighbors m (coord 2 2)))

let test_step_of_link () =
  let open Noc.Mesh in
  check_bool "east" true
    (step_of_link (link ~src:(coord 1 1) ~dst:(coord 1 2)) = East);
  check_bool "north" true
    (step_of_link (link ~src:(coord 2 1) ~dst:(coord 1 1)) = North);
  check_bool "horizontal" true
    (step_of_link (link ~src:(coord 1 2) ~dst:(coord 1 1)) = West);
  check_bool "vertical" true
    (step_of_link (link ~src:(coord 1 1) ~dst:(coord 2 1)) = South)

(* [step_id] is the one copy of the id layout: on every link of every mesh
   up to 6x7 it names the link [link_id] does. *)
let test_step_id_matches_link_id () =
  for rows = 1 to 6 do
    for cols = 1 to 7 do
      let m = Noc.Mesh.create ~rows ~cols in
      let links = ref 0 in
      Array.iter
        (fun c ->
          List.iter
            (fun s ->
              match Noc.Mesh.move m c s with
              | None -> ()
              | Some d ->
                  incr links;
                  check_int "step id"
                    (Noc.Mesh.link_id m (Noc.Mesh.link ~src:c ~dst:d))
                    (Noc.Mesh.step_id m c s))
            Noc.Mesh.[ East; West; South; North ])
        (Noc.Mesh.all_cores m);
      check_int "every link" (Noc.Mesh.num_links m) !links
    done
  done

(* [iter_neighbors] is the per-neighbour view of the same layout: on
   every core of every mesh up to 6x7 it visits the cores [neighbors]
   lists, in that order, handing out the [link_id]s of both directions,
   and [core_of_index] inverts the row-major [core_index]. *)
let test_iter_neighbors_matches_neighbors () =
  for rows = 1 to 6 do
    for cols = 1 to 7 do
      let m = Noc.Mesh.create ~rows ~cols in
      let k = ref 0 in
      for row = 1 to rows do
        for col = 1 to cols do
          let c = coord row col in
          check_int "row-major index" !k (Noc.Mesh.core_index m c);
          incr k;
          check_bool "core_of_index inverts core_index" true
            (Noc.Coord.equal c
               (Noc.Mesh.core_of_index m (Noc.Mesh.core_index m c)));
          let seen = ref [] in
          Noc.Mesh.iter_neighbors m c (fun nb out into ->
              let d = Noc.Mesh.core_of_index m nb in
              seen := d :: !seen;
              check_int "out id"
                (Noc.Mesh.link_id m (Noc.Mesh.link ~src:c ~dst:d))
                out;
              check_int "into id"
                (Noc.Mesh.link_id m (Noc.Mesh.link ~src:d ~dst:c))
                into);
          check_bool "the neighbors, in order" true
            (List.rev !seen = Noc.Mesh.neighbors m c)
        done
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Path *)

let test_xy_yx_shapes () =
  let src = coord 1 1 and snk = coord 3 4 in
  let xy = Noc.Path.xy ~src ~snk and yx = Noc.Path.yx ~src ~snk in
  check_int "length" 5 (Noc.Path.length xy);
  check_int "bends xy" 1 (Noc.Path.bends xy);
  check_int "bends yx" 1 (Noc.Path.bends yx);
  let c = Noc.Path.cores xy in
  check_bool "xy goes flat first" true (Noc.Coord.equal c.(1) (coord 1 2));
  let c = Noc.Path.cores yx in
  check_bool "yx goes down first" true (Noc.Coord.equal c.(1) (coord 2 1));
  check_bool "xy ends at snk" true
    (Noc.Coord.equal (Noc.Path.cores xy).(5) snk)

let test_path_straight () =
  let p = Noc.Path.xy ~src:(coord 2 1) ~snk:(coord 2 4) in
  check_int "bends" 0 (Noc.Path.bends p);
  check_int "length" 3 (Noc.Path.length p)

let test_of_cores_roundtrip () =
  let src = coord 4 5 and snk = coord 1 2 in
  Noc.Path.fold_all
    (fun () p ->
      let p' = Noc.Path.of_cores (Noc.Path.cores p) in
      check_bool "roundtrip" true (Noc.Path.equal p p'))
    () ~src ~snk

let test_of_cores_rejects_bad () =
  Alcotest.check_raises "gap"
    (Invalid_argument "Path.of_cores: non-monotone hop (1,1)->(1,3)")
    (fun () ->
      ignore (Noc.Path.of_cores [| coord 1 1; coord 1 3 |]))

let test_two_bend_count () =
  (* |du| + |dv| two-bend paths when both offsets are non-zero. *)
  let src = coord 1 1 in
  List.iter
    (fun (snk, expect) ->
      check_int "two-bend count" expect
        (List.length (Noc.Path.two_bend_all ~src ~snk)))
    [ (coord 3 4, 5); (coord 2 2, 2); (coord 1 5, 1); (coord 4 1, 1) ];
  List.iter
    (fun p -> check_bool "bends <= 2" true (Noc.Path.bends p <= 2))
    (Noc.Path.two_bend_all ~src ~snk:(coord 4 5))

let test_two_bend_all_distinct () =
  let paths = Noc.Path.two_bend_all ~src:(coord 1 1) ~snk:(coord 4 5) in
  let rec distinct = function
    | [] -> true
    | p :: rest -> (not (List.exists (Noc.Path.equal p) rest)) && distinct rest
  in
  check_bool "distinct" true (distinct paths)

let test_fold_all_count_matches_binomial () =
  List.iter
    (fun (snk, expect) ->
      let n = Noc.Path.fold_all (fun acc _ -> acc + 1) 0 ~src:(coord 1 1) ~snk in
      check_int "enumerated" expect n;
      check_int "closed form" expect (Noc.Path.count ~src:(coord 1 1) ~snk))
    [ (coord 3 3, 6); (coord 4 4, 20); (coord 2 5, 5); (coord 1 4, 1) ]

let test_count_degenerate () =
  check_int "same core" 1 (Noc.Path.count ~src:(coord 2 2) ~snk:(coord 2 2));
  check_int "32x32 corner to corner" 465428353255261088
    (Noc.Path.count ~src:(coord 1 1) ~snk:(coord 32 32));
  Alcotest.check_raises "34x34 does not fit"
    (Invalid_argument "binomial: C(66,33) overflows int") (fun () ->
      ignore (Noc.Path.count ~src:(coord 34 34) ~snk:(coord 1 1)))

let test_mem_link () =
  let m = Noc.Mesh.square 3 in
  let p = Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 2 3) in
  let mem l = Array.mem (Noc.Mesh.link_id m l) (Noc.Path.ids m p) in
  check_bool "first hop" true
    (mem (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2)));
  check_bool "absent" false
    (mem (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 2 1)))

let test_make_validates () =
  Alcotest.check_raises "wrong counts"
    (Invalid_argument "Path.make: (1,1)->(2,3) needs 2H/1V, got 1H/1V")
    (fun () ->
      ignore (Noc.Path.make ~src:(coord 1 1) ~snk:(coord 2 3) [| H; V |]))

(* qcheck: random paths are valid Manhattan paths in every quadrant. *)
let arb_pair =
  QCheck.make
    ~print:(fun ((a, b), (c, d)) -> Printf.sprintf "(%d,%d)->(%d,%d)" a b c d)
    QCheck.Gen.(
      quad (int_range 1 8) (int_range 1 8) (int_range 1 8) (int_range 1 8)
      |> map (fun (a, b, c, d) -> ((a, b), (c, d))))

let prop_random_path_valid =
  QCheck.Test.make ~name:"random Manhattan path is monotone and complete"
    ~count:500 arb_pair (fun ((r1, c1), (r2, c2)) ->
      QCheck.assume (not (r1 = r2 && c1 = c2));
      let src = coord r1 c1 and snk = coord r2 c2 in
      let rng = Traffic.Rng.create ((r1 * 1000) + c1 + (r2 * 17) + c2) in
      let p = Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src ~snk in
      Noc.Path.length p = Noc.Coord.manhattan src snk
      && Noc.Coord.equal (Noc.Path.src p) src
      && Noc.Coord.equal (Noc.Path.snk p) snk
      &&
      (* of_cores re-validates monotonicity; equality closes the loop. *)
      Noc.Path.equal p (Noc.Path.of_cores (Noc.Path.cores p)))

let prop_two_bend_subset_of_all =
  QCheck.Test.make ~name:"two-bend paths appear in the full enumeration"
    ~count:100 arb_pair (fun ((r1, c1), (r2, c2)) ->
      QCheck.assume (not (r1 = r2 && c1 = c2));
      QCheck.assume (Noc.Coord.manhattan (coord r1 c1) (coord r2 c2) <= 8);
      let src = coord r1 c1 and snk = coord r2 c2 in
      let all = Noc.Path.fold_all (fun acc p -> p :: acc) [] ~src ~snk in
      List.for_all
        (fun p -> List.exists (Noc.Path.equal p) all)
        (Noc.Path.two_bend_all ~src ~snk))

(* Route ids against [link_id] of consecutive cores, on non-square meshes:
   a random Manhattan path between random corners (every quadrant), and a
   random unit-step walk, which revisits cores and links freely. *)
let prop_ids_match_core_pairs =
  QCheck.Test.make ~name:"Path.ids and Walk.ids = link_id of core pairs"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (triple (int_range 1 7) (int_range 1 9) (int_range 1 30)) nat))
    (fun ((rows, cols, steps), seed) ->
      QCheck.assume (rows <> cols);
      let m = Noc.Mesh.create ~rows ~cols in
      let rng = Traffic.Rng.create seed in
      let core () =
        coord
          (1 + Traffic.Rng.int rng rows)
          (1 + Traffic.Rng.int rng cols)
      in
      let pairs cores =
        Array.init
          (Array.length cores - 1)
          (fun i ->
            Noc.Mesh.link_id m
              (Noc.Mesh.link ~src:cores.(i) ~dst:cores.(i + 1)))
      in
      let src = core () and snk = core () in
      let p = Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src ~snk in
      let walk = ref [ src ] in
      for _ = 1 to steps do
        let nbs = Noc.Mesh.neighbors m (List.hd !walk) in
        walk := List.nth nbs (Traffic.Rng.int rng (List.length nbs)) :: !walk
      done;
      let w = Noc.Walk.of_cores (Array.of_list (List.rev !walk)) in
      Noc.Path.ids m p = pairs (Noc.Path.cores p)
      && Noc.Walk.ids m w = pairs (Noc.Walk.cores w))

let test_link_family_counts () =
  (* The id layout packs East, West, South, North contiguously; classify
     every link and check the family sizes. *)
  let m = Noc.Mesh.create ~rows:3 ~cols:5 in
  let counts = Hashtbl.create 4 in
  Noc.Mesh.iter_links m (fun _ l ->
      let s = Noc.Mesh.step_of_link l in
      Hashtbl.replace counts s
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)));
  check_int "east" (3 * 4) (Hashtbl.find counts Noc.Mesh.East);
  check_int "west" (3 * 4) (Hashtbl.find counts Noc.Mesh.West);
  check_int "south" (2 * 5) (Hashtbl.find counts Noc.Mesh.South);
  check_int "north" (2 * 5) (Hashtbl.find counts Noc.Mesh.North)

let test_fold_all_first_is_xy () =
  (* The enumeration emits H before V at every branch, so the first path
     is exactly the XY route. *)
  let src = coord 2 1 and snk = coord 4 4 in
  let first =
    Noc.Path.fold_all
      (fun acc p -> match acc with None -> Some p | some -> some)
      None ~src ~snk
  in
  match first with
  | Some p -> check_bool "first is xy" true (Noc.Path.equal p (Noc.Path.xy ~src ~snk))
  | None -> Alcotest.fail "at least one path"

let test_random_path_covers_both_ls () =
  (* On a 2x2 rectangle the two L-paths must both appear with roughly
     equal frequency. *)
  let rng = Traffic.Rng.create 23 in
  let src = coord 1 1 and snk = coord 2 2 in
  let xy = Noc.Path.xy ~src ~snk in
  let n = 2000 in
  let hits = ref 0 in
  for _ = 1 to n do
    let p = Noc.Path.random ~choose:(Traffic.Rng.int rng) ~src ~snk in
    if Noc.Path.equal p xy then incr hits
  done;
  check_bool "roughly balanced" true (!hits > 850 && !hits < 1150)

let prop_diag_index_in_range =
  QCheck.Test.make ~name:"diagonal indices stay in [1, p+q-1]" ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 9) (int_range 1 9) (int_range 1 9) (int_range 1 9)))
    (fun (rows, cols, u, v) ->
      QCheck.assume (u <= rows && v <= cols);
      List.for_all
        (fun d ->
          let k = Noc.Quadrant.diag_index ~rows ~cols d (coord u v) in
          k >= 1 && k <= rows + cols - 1)
        Noc.Quadrant.all)

(* ------------------------------------------------------------------ *)
(* Rect *)

(* The rectangle's geometry, from coordinates, to check the compiled DAG
   against: a core's offset and diagonal step, and whether it lies inside
   the rectangle. *)
let rect_offset (r : Noc.Rect.t) (c : Noc.Coord.t) =
  (abs (c.row - r.src.row) * (r.dcol + 1)) + abs (c.col - r.src.col)

let step_of_core (r : Noc.Rect.t) (c : Noc.Coord.t) =
  abs (c.row - r.src.row) + abs (c.col - r.src.col)

let contains_core (r : Noc.Rect.t) (c : Noc.Coord.t) =
  let between a b x = min a b <= x && x <= max a b in
  between r.src.row r.snk.row c.row && between r.src.col r.snk.col c.col

let test_rect_steps () =
  let r = Noc.Rect.make ~src:(coord 1 1) ~snk:(coord 3 4) in
  let d = Noc.Rect.compile (Noc.Mesh.square 6) r in
  check_int "length" 5 (Noc.Rect.length r);
  (* The cores of step k: the tails of its slots (the heads of step k-1's
     for the sink step). *)
  let cores_on_step k =
    let ends, k = if k < 5 then (d.tail, k) else (d.head, k - 1) in
    List.init (d.steps.(k + 1) - d.steps.(k)) (fun i -> ends.(d.steps.(k) + i))
    |> List.sort_uniq Int.compare |> List.length
  in
  check_int "step 0 cores" 1 (cores_on_step 0);
  check_int "step 2 cores" 3 (cores_on_step 2);
  check_int "step 5 cores" 1 (cores_on_step 5);
  (* Total links over all steps = #horizontal + #vertical in the rect. *)
  let total =
    List.init 5 (fun k -> d.steps.(k + 1) - d.steps.(k))
    |> List.fold_left ( + ) 0
  in
  check_int "total rect links" ((3 * 3) + (2 * 4)) total;
  check_int "every slot in a step" (Array.length d.ids) d.steps.(5);
  Alcotest.check_raises "sink off the mesh"
    (Invalid_argument "Rect.compile: sink off the mesh") (fun () ->
      ignore (Noc.Rect.compile (Noc.Mesh.square 2) r))

let test_rect_source_off_mesh () =
  Alcotest.check_raises "source off the mesh"
    (Invalid_argument "Rect.compile: source off the mesh") (fun () ->
      ignore
        (Noc.Rect.compile (Noc.Mesh.square 3)
           (Noc.Rect.make ~src:(coord 0 2) ~snk:(coord 2 2))))

let test_rect_quadrants () =
  (* The rectangle machinery must work identically in all four quadrants. *)
  let m = Noc.Mesh.square 6 in
  List.iter
    (fun (src, snk) ->
      let r = Noc.Rect.make ~src ~snk in
      let d = Noc.Rect.compile m r in
      let n = Noc.Rect.length r in
      for k = 0 to n - 1 do
        for s = d.steps.(k) to d.steps.(k + 1) - 1 do
          let l = Noc.Mesh.link_of_id m d.ids.(s) in
          Alcotest.(check bool) "contains_link" true
            (contains_core r l.src && contains_core r l.dst
            && rect_offset r l.src = d.tail.(s)
            && rect_offset r l.dst = d.head.(s));
          check_int "step of src" k (step_of_core r l.src);
          check_int "step of dst" (k + 1) (step_of_core r l.dst)
        done
      done;
      check_int "snk step" n (step_of_core r snk);
      check_int "snk is the last offset" (Array.length d.out - 1)
        (rect_offset r snk))
    [
      (coord 2 2, coord 4 5);
      (coord 2 5, coord 4 2);
      (coord 4 5, coord 2 2);
      (coord 4 2, coord 2 5);
    ]

let test_rect_out_links_order () =
  let m = Noc.Mesh.square 3 in
  let r = Noc.Rect.make ~src:(coord 1 1) ~snk:(coord 3 3) in
  let d = Noc.Rect.compile m r in
  let out_links c =
    let o = rect_offset r c in
    List.init (Noc.Rect.out_degree d o) (fun i ->
        let s = d.out.(o) + i in
        check_int "out-slot leaves its core" o d.tail.(s);
        Noc.Mesh.link_of_id m d.ids.(s))
  in
  (match out_links (coord 1 1) with
  | [ h; v ] ->
      check_bool "horizontal first" true (Noc.Mesh.step_of_link h = East);
      check_bool "then vertical" true (Noc.Mesh.step_of_link v = South)
  | _ -> Alcotest.fail "expected two out links");
  check_int "sink row: single link" 1 (List.length (out_links (coord 3 2)));
  check_int "sink: none" 0 (List.length (out_links (coord 3 3)))

let prop_every_path_stays_in_rect =
  let m = Noc.Mesh.square 8 in
  QCheck.Test.make ~name:"every Manhattan path stays in its rectangle"
    ~count:200 arb_pair (fun ((r1, c1), (r2, c2)) ->
      QCheck.assume (not (r1 = r2 && c1 = c2));
      QCheck.assume (Noc.Coord.manhattan (coord r1 c1) (coord r2 c2) <= 7);
      let src = coord r1 c1 and snk = coord r2 c2 in
      let rect = Noc.Rect.make ~src ~snk in
      let d = Noc.Rect.compile m rect in
      Noc.Path.fold_all
        (fun acc p ->
          acc
          && Array.for_all (contains_core rect) (Noc.Path.cores p)
          && Array.for_all (fun id -> Array.mem id d.ids) (Noc.Path.ids m p))
        true ~src ~snk)

(* The shared rectangle search against brute force over every Manhattan
   path. Integer costs 0-3 keep the float sums exact and ties common;
   about one link in six is unusable. *)
let prop_cheapest_is_brute_force =
  let m = Noc.Mesh.square 6 in
  let nl = Noc.Mesh.num_links m in
  QCheck.Test.make ~name:"rect cheapest = brute force over all paths"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (quad (int_range 1 6) (int_range 1 6) (int_range 1 6)
              (int_range 1 6))
           (array_size (return nl) (int_range 0 3))
           (array_size (return nl) (int_range 0 5))))
    (fun ((r1, c1, r2, c2), costs, cuts) ->
      QCheck.assume (not (r1 = r2 && c1 = c2));
      let src = coord r1 c1 and snk = coord r2 c2 in
      let d = Noc.Rect.compile m (Noc.Rect.make ~src ~snk) in
      let usable id = cuts.(id) > 0 and cost id = float_of_int costs.(id) in
      let cheapest ~usable ~cost =
        Option.map
          (fun (slots, c) -> (Noc.Rect.path d slots, c))
          (Noc.Rect.cheapest d
             ~usable:(fun s -> usable d.ids.(s))
             ~cost:(fun s -> cost d.ids.(s)))
      in
      let ids = Noc.Path.ids m in
      let path_cost p =
        Array.fold_left (fun c id -> c +. cost id) 0. (ids p)
      in
      let brute =
        Noc.Path.fold_all
          (fun best p ->
            if not (Array.for_all usable (ids p)) then best
            else
              Some
                (Float.min (path_cost p)
                   (Option.value best ~default:infinity)))
          None ~src ~snk
      in
      let same_minimum =
        match (cheapest ~usable ~cost, brute) with
        | None, None -> true
        | Some (p, c), Some b ->
            c = b && path_cost p = b && Array.for_all usable (ids p)
        | _ -> false
      in
      let first_wins =
        match cheapest ~usable:(fun _ -> true) ~cost:(fun _ -> 1.) with
        | Some (p, _) -> Noc.Path.equal p (Noc.Path.xy ~src ~snk)
        | None -> false
      in
      same_minimum && first_wins)

(* ------------------------------------------------------------------ *)
(* Load *)

let test_load_add_remove () =
  let m = Noc.Mesh.square 4 in
  let loads = Noc.Load.create m in
  let p = Noc.Path.xy ~src:(coord 1 1) ~snk:(coord 4 4) in
  Noc.Load.add_path loads p 2.5;
  check_float "on path" 2.5
    (Noc.Load.get loads
       (Noc.Mesh.link_id m (Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2))));
  check_float "total" (2.5 *. 6.) (Noc.Load.total loads);
  check_int "active" 6 (Noc.Load.active_links loads);
  Noc.Load.remove_path loads p 2.5;
  check_float "max after removal" 0. (Noc.Load.max_load loads);
  check_int "no active" 0 (Noc.Load.active_links loads)

(* Paths are checked at their corners, before any hop is added: an
   off-mesh corner raises and leaves the loads untouched. *)
let test_load_off_mesh_path () =
  let m = Noc.Mesh.square 3 in
  let loads = Noc.Load.create m in
  List.iter
    (fun (src, snk) ->
      (match Noc.Load.add_path loads (Noc.Path.xy ~src ~snk) 1. with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      check_float "nothing added" 0. (Noc.Load.total loads))
    [ (coord 1 1, coord 3 4); (coord 0 2, coord 2 2); (coord 2 2, coord 4 1) ]

let test_load_overloaded_sorted () =
  let m = Noc.Mesh.square 3 in
  let loads = Noc.Load.create m in
  let l1 = Noc.Mesh.link ~src:(coord 1 1) ~dst:(coord 1 2)
  and l2 = Noc.Mesh.link ~src:(coord 2 2) ~dst:(coord 3 2) in
  Noc.Load.add loads (Noc.Mesh.link_id m l1) 5.;
  Noc.Load.add loads (Noc.Mesh.link_id m l2) 9.;
  (match Noc.Load.overloaded loads ~capacity:4. with
  | [ (id2, 9.); (id1, 5.) ] ->
      check_int "hottest first" (Noc.Mesh.link_id m l2) id2;
      check_int "then next" (Noc.Mesh.link_id m l1) id1
  | _ -> Alcotest.fail "expected two overloads in order");
  check_int "none above 10" 0
    (List.length (Noc.Load.overloaded loads ~capacity:10.));
  Alcotest.(check (option int))
    "hottest" (Some (Noc.Mesh.link_id m l2))
    (Noc.Load.hottest loads (fun _ -> true))

let test_load_copy_isolated () =
  let m = Noc.Mesh.square 3 in
  let a = Noc.Load.create m in
  Noc.Load.add a 0 1.;
  let b = Noc.Load.copy a in
  Noc.Load.add b 0 1.;
  check_float "original untouched" 1. (Noc.Load.get a 0);
  check_float "copy changed" 2. (Noc.Load.get b 0)

let prop_load_cancellation =
  QCheck.Test.make ~name:"adding then removing a path restores zero"
    ~count:200
    QCheck.(pair (QCheck.make QCheck.Gen.(float_range 0.001 4000.)) arb_pair)
    (fun (rate, ((r1, c1), (r2, c2))) ->
      QCheck.assume (not (r1 = r2 && c1 = c2));
      let m = Noc.Mesh.square 8 in
      let loads = Noc.Load.create m in
      let p = Noc.Path.yx ~src:(coord r1 c1) ~snk:(coord r2 c2) in
      Noc.Load.add_path loads p rate;
      Noc.Load.add_path loads p (rate /. 3.);
      Noc.Load.remove_path loads p rate;
      Noc.Load.remove_path loads p (rate /. 3.);
      Noc.Load.max_load loads = 0.)

(* qcheck: [hottest] is the first id of the reference order (effective
   load descending, ties by increasing id) that satisfies the predicate.
   Loads come from a small palette so ties and zeros are common; a link
   degraded to 0.5 ties with a healthy one at twice its load, dead links
   carrying traffic read infinity and idle dead links 0. Sparse masks
   leave some draws with no eligible link at all. *)
let prop_hottest_is_sorted_head =
  let m = Noc.Mesh.square 4 in
  let n = Noc.Mesh.num_links m in
  let palette = [| 0.; 0.; 250.; 500.; 500.; 1000.; 1750.; 3500. |] in
  let gen =
    QCheck.Gen.(
      bool >>= fun sparse ->
      let flag =
        if sparse then frequency [ (1, return true); (15, return false) ]
        else bool
      in
      quad bool
        (array_repeat n (int_range 0 (Array.length palette - 1)))
        (array_repeat n (int_range 0 5))
        (array_repeat n flag))
  in
  QCheck.Test.make ~name:"hottest = head of the effective-load sort"
    ~count:500 (QCheck.make gen) (fun (faulty, picks, kinds, mask) ->
      let fault =
        if not faulty then None
        else
          let f = ref (Noc.Fault.healthy m) in
          Array.iteri
            (fun id kind ->
              let l = Noc.Mesh.link_of_id m id in
              if kind = 0 then f := Noc.Fault.kill_link !f l
              else if kind = 1 then f := Noc.Fault.degrade_link !f l 0.5)
            kinds;
          Some !f
      in
      let loads = Noc.Load.create ?fault m in
      Array.iteri (fun id i -> Noc.Load.set loads id palette.(i)) picks;
      let eff = Noc.Load.get_effective loads in
      let reference =
        List.sort
          (fun a b ->
            let c = Float.compare (eff b) (eff a) in
            if c <> 0 then c else Int.compare a b)
          (List.init n Fun.id)
      in
      Noc.Load.hottest loads (fun id -> mask.(id))
      = List.find_opt (fun id -> mask.(id)) reference)

let () =
  Alcotest.run "noc"
    [
      ( "coord",
        [ Alcotest.test_case "basics" `Quick test_coord_basics ] );
      ( "quadrant",
        [
          Alcotest.test_case "of_endpoints" `Quick test_quadrant_of_endpoints;
          Alcotest.test_case "steps" `Quick test_quadrant_steps;
          Alcotest.test_case "paper formulas" `Quick
            test_diag_index_paper_formulas;
          Alcotest.test_case "advance along path" `Quick
            test_diag_index_advances_along_path;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "counts" `Quick test_mesh_counts;
          Alcotest.test_case "invalid create" `Quick test_mesh_create_invalid;
          Alcotest.test_case "link id bijection" `Quick test_link_id_bijection;
          Alcotest.test_case "rejects foreign links" `Quick
            test_link_id_rejects_foreign;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "step of link" `Quick test_step_of_link;
          Alcotest.test_case "link families" `Quick test_link_family_counts;
          Alcotest.test_case "step id = link id" `Quick
            test_step_id_matches_link_id;
          Alcotest.test_case "iter_neighbors = neighbors" `Quick
            test_iter_neighbors_matches_neighbors;
        ] );
      ( "path",
        [
          Alcotest.test_case "xy/yx shapes" `Quick test_xy_yx_shapes;
          Alcotest.test_case "straight" `Quick test_path_straight;
          Alcotest.test_case "of_cores roundtrip" `Quick test_of_cores_roundtrip;
          Alcotest.test_case "of_cores rejects" `Quick test_of_cores_rejects_bad;
          Alcotest.test_case "two-bend count" `Quick test_two_bend_count;
          Alcotest.test_case "two-bend distinct" `Quick
            test_two_bend_all_distinct;
          Alcotest.test_case "enumeration = binomial" `Quick
            test_fold_all_count_matches_binomial;
          Alcotest.test_case "degenerate count" `Quick test_count_degenerate;
          Alcotest.test_case "mem_link" `Quick test_mem_link;
          Alcotest.test_case "make validates" `Quick test_make_validates;
          Alcotest.test_case "first enumerated is xy" `Quick
            test_fold_all_first_is_xy;
          Alcotest.test_case "random path balanced" `Quick
            test_random_path_covers_both_ls;
          QCheck_alcotest.to_alcotest prop_random_path_valid;
          QCheck_alcotest.to_alcotest prop_two_bend_subset_of_all;
          QCheck_alcotest.to_alcotest prop_diag_index_in_range;
          QCheck_alcotest.to_alcotest prop_ids_match_core_pairs;
        ] );
      ( "rect",
        [
          Alcotest.test_case "steps" `Quick test_rect_steps;
          Alcotest.test_case "all quadrants" `Quick test_rect_quadrants;
          Alcotest.test_case "out_links order" `Quick test_rect_out_links_order;
          Alcotest.test_case "source off the mesh" `Quick
            test_rect_source_off_mesh;
          QCheck_alcotest.to_alcotest prop_every_path_stays_in_rect;
          QCheck_alcotest.to_alcotest prop_cheapest_is_brute_force;
        ] );
      ( "load",
        [
          Alcotest.test_case "add/remove" `Quick test_load_add_remove;
          Alcotest.test_case "off-mesh path" `Quick test_load_off_mesh_path;
          Alcotest.test_case "overloaded sorted" `Quick
            test_load_overloaded_sorted;
          Alcotest.test_case "copy isolated" `Quick test_load_copy_isolated;
          QCheck_alcotest.to_alcotest prop_load_cancellation;
          QCheck_alcotest.to_alcotest prop_hottest_is_sorted_head;
        ] );
    ]
