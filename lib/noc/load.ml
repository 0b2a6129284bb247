type t = { mesh : Mesh.t; loads : float array; fault : Fault.t option }

let create ?fault mesh =
  { mesh; loads = Array.make (Mesh.num_links mesh) 0.; fault }

let mesh t = t.mesh
let fault t = t.fault
let copy t = { t with loads = Array.copy t.loads }
let get t id = t.loads.(id)
let get_link t l = t.loads.(Mesh.link_id t.mesh l)

let factor t id =
  match t.fault with None -> 1. | Some f -> Fault.factor f id

let factor_link t l = factor t (Mesh.link_id t.mesh l)

let usable t id =
  match t.fault with None -> true | Some f -> Fault.usable_id f id

let usable_link t l = usable t (Mesh.link_id t.mesh l)

(* Load rescaled to the healthy capacity scale: a link at factor [phi]
   carrying [x] behaves like a healthy link carrying [x / phi]. Dead links
   map any positive load to [infinity] (and 0 to 0, not nan). *)
let get_effective t id =
  let x = t.loads.(id) in
  let phi = factor t id in
  if phi = 1. then x
  else if phi = 0. then if x > 0. then infinity else 0.
  else x /. phi

let get_effective_link t l = get_effective t (Mesh.link_id t.mesh l)

(* Loads are sums/differences of the same rate values, so exact cancellation
   is common; clamp the residual noise so that feasibility tests with
   [capacity] stay stable. *)
let epsilon = 1e-9

(* A removal that cancels the load to within [epsilon] *relative* to the
   operands lands exactly on [0.]: long add/remove streams accumulate
   rounding drift proportional to the magnitudes involved, and a tiny
   negative or denormal residue would flip the link out of the idle class
   ([load <= 0.]) and corrupt level/overload accounting. The absolute clamp
   alone only covers residues below [1e-9], which high-rate streams
   exceed. *)
let add t id delta =
  let x0 = t.loads.(id) in
  let x = x0 +. delta in
  t.loads.(id) <-
    (if x < epsilon && x > -.epsilon then 0.
     else if
       delta < 0.
       && Float.abs x <= epsilon *. Float.max (Float.abs x0) (-.delta)
     then 0.
     else x)

let set t id x = t.loads.(id) <- x
let add_link t l delta = add t (Mesh.link_id t.mesh l) delta
let add_path t path rate = Path.iter_links path (fun l -> add_link t l rate)
let remove_path t path rate = add_path t path (-.rate)
let add_walk t walk rate = Walk.iter_links walk (fun l -> add_link t l rate)
let max_load t = Array.fold_left max 0. t.loads
let total t = Array.fold_left ( +. ) 0. t.loads

let active_links t =
  Array.fold_left (fun n x -> if x > 0. then n + 1 else n) 0 t.loads

let overloaded t ~capacity =
  let over = ref [] in
  Array.iteri
    (fun id x -> if x > capacity +. epsilon then over := (id, x) :: !over)
    t.loads;
  List.sort (fun (_, a) (_, b) -> Float.compare b a) !over

(* Overload factor on the *effective* scale: by how much (as a fraction
   of [capacity]) the link exceeds its degraded ceiling. 0. within
   capacity (up to the same epsilon as {!overloaded}); [infinity] on a
   dead link carrying traffic. *)
let overload t ~capacity id =
  let eff = get_effective t id in
  if eff <= capacity +. epsilon then 0. else (eff -. capacity) /. capacity

let effective_capacity t ~capacity id = factor t id *. capacity

let overloaded_effective t ~capacity =
  let over = ref [] in
  for id = Array.length t.loads - 1 downto 0 do
    let eff = get_effective t id in
    if eff > capacity +. epsilon then over := (id, eff) :: !over
  done;
  List.sort
    (fun (ida, a) (idb, b) ->
      let c = Float.compare b a in
      if c <> 0 then c else Int.compare ida idb)
    !over

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun id x -> acc := f id x !acc) t.loads;
  !acc

let iter f t = Array.iteri f t.loads

(* Hottest-first by *effective* load, so fault-aware consumers (PR's link
   removal, XYI's hot-link scan) see a degraded link as proportionally
   fuller: one scan in id order under [Float.compare], keeping the first
   maximum, is the head of the descending order with ties to the lower
   id. The predicate is only consulted for ids that would take the lead,
   so it must be pure. *)
let hottest t p =
  let best = ref (-1) and best_eff = ref 0. in
  for id = 0 to Array.length t.loads - 1 do
    let eff = get_effective t id in
    if (!best < 0 || Float.compare eff !best_eff > 0) && p id then begin
      best := id;
      best_eff := eff
    end
  done;
  if !best < 0 then None else Some !best
