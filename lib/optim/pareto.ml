type objectives = {
  power : float;
  p50 : float;
  p95 : float;
  slope : float;
}

type point = { pt_name : string; pt_obj : objectives }

(* Non-finite coordinates (a NaN quantile from a window that delivered
   nothing) compare as +infinity: such a point can still survive — nothing
   has to dominate it — but it can never beat a finite one on that axis,
   and domination stays a total, deterministic relation. *)
let canon v = if Float.is_finite v then v else infinity

let axes o = [| canon o.power; canon o.p50; canon o.p95; canon o.slope |]

let dominates a b =
  let a = axes a and b = axes b in
  let le = ref true and lt = ref false in
  Array.iteri
    (fun i av ->
      if av > b.(i) then le := false else if av < b.(i) then lt := true)
    a;
  !le && !lt

let front points =
  let arr = Array.of_list points in
  let n = Array.length arr in
  let keep i =
    let rec go j =
      j >= n
      || ((j = i || not (dominates arr.(j).pt_obj arr.(i).pt_obj)) && go (j + 1))
    in
    go 0
  in
  List.filteri (fun i _ -> keep i) points

type budget = { cycles : int; tolerance : float option; warmup : int option }

let slope ?fault ~kills model solution base =
  match fault with
  | Some f when kills > 0 ->
      let degraded =
        Routing.Evaluate.penalized model (Routing.Solution.loads ~fault:f solution)
      in
      (degraded -. base) /. float_of_int kills
  | _ -> 0.

let measure ?arena ~budget ?fault ~kills model
    ~(report : Routing.Evaluate.report) solution =
  if not report.Routing.Evaluate.feasible then None
  else begin
    let net = Sim.Network.create ?arena model solution in
    let r =
      Sim.Network.run ?warmup:budget.warmup ?tolerance:budget.tolerance net
        ~cycles:budget.cycles
    in
    Some
      {
        power = report.Routing.Evaluate.total_power;
        p50 = r.Sim.Network.latency_p50;
        p95 = r.Sim.Network.latency_p95;
        slope = slope ?fault ~kills model solution report.total_power;
      }
  end

let pp_objectives ppf o =
  Format.fprintf ppf "power %.6g, p50 %.6g, p95 %.6g, slope %.6g" o.power
    o.p50 o.p95 o.slope

let pp_point ppf p =
  Format.fprintf ppf "%s: %a" p.pt_name pp_objectives p.pt_obj
