(* Tests for Fbb_lp (simplex) and Fbb_ilp (branch and bound). *)

module S = Fbb_lp.Simplex
module BB = Fbb_ilp.Branch_bound

let lp ?upper num_vars minimize constraints =
  { S.num_vars; minimize = Array.of_list minimize; constraints; upper }

let c terms relation rhs = { S.terms; relation; rhs }

let expect_opt name problem expected_obj =
  match S.solve problem with
  | S.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) name expected_obj objective;
    Alcotest.(check bool) "solution feasible" true
      (S.check problem solution ~eps:1e-6)
  | S.Infeasible -> Alcotest.failf "%s: infeasible" name
  | S.Unbounded -> Alcotest.failf "%s: unbounded" name
  | S.Pivot_limit -> Alcotest.failf "%s: pivot limit" name
  | S.Budget_exhausted -> Alcotest.failf "%s: budget exhausted" name

let test_lp_max_basic () =
  (* max 3x+2y st x+y<=4, x+3y<=6 -> 12 at (4,0) *)
  expect_opt "basic max"
    (lp 2 [ -3.0; -2.0 ]
       [ c [ (0, 1.0); (1, 1.0) ] S.Le 4.0; c [ (0, 1.0); (1, 3.0) ] S.Le 6.0 ])
    (-12.0)

let test_lp_min_with_eq () =
  expect_opt "min with equality"
    (lp 2 [ 1.0; 1.0 ]
       [ c [ (0, 1.0); (1, 1.0) ] S.Ge 2.0; c [ (0, 1.0); (1, -1.0) ] S.Eq 1.0 ])
    2.0

let test_lp_negative_rhs () =
  (* -x <= -3  <=>  x >= 3 *)
  expect_opt "negative rhs" (lp 1 [ 1.0 ] [ c [ (0, -1.0) ] S.Le (-3.0) ]) 3.0

let test_lp_infeasible () =
  match
    S.solve
      (lp 1 [ 1.0 ] [ c [ (0, 1.0) ] S.Le 1.0; c [ (0, 1.0) ] S.Ge 2.0 ])
  with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded | S.Pivot_limit | S.Budget_exhausted ->
    Alcotest.fail "expected infeasible"

let test_lp_unbounded () =
  match S.solve (lp 1 [ -1.0 ] []) with
  | S.Unbounded -> ()
  | S.Optimal _ | S.Infeasible | S.Pivot_limit | S.Budget_exhausted ->
    Alcotest.fail "expected unbounded"

let test_lp_upper_bounds () =
  expect_opt "upper bound binds"
    (lp ~upper:[| 5.0 |] 1 [ -1.0 ] [])
    (-5.0)

let test_lp_degenerate () =
  (* Multiple redundant constraints through one vertex. *)
  expect_opt "degenerate"
    (lp 2 [ -1.0; -1.0 ]
       [
         c [ (0, 1.0); (1, 1.0) ] S.Le 1.0;
         c [ (0, 2.0); (1, 2.0) ] S.Le 2.0;
         c [ (0, 1.0) ] S.Le 1.0;
         c [ (1, 1.0) ] S.Le 1.0;
       ])
    (-1.0)

let test_lp_duplicate_terms () =
  (* (x + x) <= 4 must densify to 2x <= 4. *)
  expect_opt "duplicate terms"
    (lp 1 [ -1.0 ] [ c [ (0, 1.0); (0, 1.0) ] S.Le 4.0 ])
    (-2.0)

(* Brute-force reference for small 0-1 programs. *)
let brute p =
  let n = p.BB.num_vars in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
    let ok =
      List.for_all
        (fun (cc : S.constr) ->
          let lhs =
            List.fold_left (fun a (v, co) -> a +. (co *. x.(v))) 0.0 cc.S.terms
          in
          match cc.S.relation with
          | S.Le -> lhs <= cc.S.rhs +. 1e-9
          | S.Ge -> lhs >= cc.S.rhs -. 1e-9
          | S.Eq -> Float.abs (lhs -. cc.S.rhs) <= 1e-9)
        p.BB.constraints
    in
    if ok then begin
      let obj = BB.objective_of p x in
      match !best with
      | Some b when b <= obj -> ()
      | Some _ | None -> best := Some obj
    end
  done;
  !best

let random_problem rng =
  let open Fbb_util in
  let n = 3 + Rng.int rng 8 in
  let m = 1 + Rng.int rng 6 in
  let minimize =
    Array.init n (fun _ -> float_of_int (1 + Rng.int rng 20))
  in
  let constraints =
    List.init m (fun _ ->
        let terms =
          List.init n (fun v -> (v, float_of_int (Rng.int rng 4)))
          |> List.filter (fun (_, co) -> co > 0.0)
        in
        if terms = [] then c [ (0, 1.0) ] S.Ge 0.0
        else
          let total =
            List.fold_left (fun a (_, co) -> a +. co) 0.0 terms
          in
          c terms S.Ge (Float.of_int (Rng.int rng (int_of_float total + 1))))
  in
  { BB.num_vars = n; minimize; constraints }

let test_bb_vs_brute_force () =
  let rng = Fbb_util.Rng.create ~seed:123 in
  for _ = 1 to 60 do
    let p = random_problem rng in
    let r = BB.solve p in
    match (brute p, r.BB.best) with
    | None, None -> ()
    | Some expected, Some (_, got) ->
      Alcotest.(check (float 1e-6)) "optimum matches brute force" expected got
    | None, Some _ -> Alcotest.fail "bb found solution to infeasible problem"
    | Some _, None -> Alcotest.fail "bb missed a feasible solution"
  done

let test_bb_status_optimal () =
  let p =
    { BB.num_vars = 2; minimize = [| 1.0; 2.0 |];
      constraints = [ c [ (0, 1.0); (1, 1.0) ] S.Ge 1.0 ] }
  in
  let r = BB.solve p in
  Alcotest.(check bool) "proved optimal" true (r.BB.status = BB.Proved_optimal);
  match r.BB.best with
  | Some (_, obj) -> Alcotest.(check (float 1e-9)) "picks cheaper var" 1.0 obj
  | None -> Alcotest.fail "no solution"

let test_bb_infeasible () =
  let p =
    { BB.num_vars = 2; minimize = [| 1.0; 1.0 |];
      constraints =
        [
          c [ (0, 1.0); (1, 1.0) ] S.Le 1.0;
          c [ (0, 1.0) ] S.Ge 1.0;
          c [ (1, 1.0) ] S.Ge 1.0;
        ] }
  in
  Alcotest.(check bool) "infeasible" true
    ((BB.solve p).BB.status = BB.Proved_infeasible)

let test_bb_warm_start () =
  let p =
    { BB.num_vars = 3; minimize = [| 3.0; 5.0; 4.0 |];
      constraints =
        [
          c [ (0, 1.0); (1, 1.0) ] S.Ge 1.0;
          c [ (1, 1.0); (2, 1.0) ] S.Ge 1.0;
          c [ (0, 1.0); (2, 1.0) ] S.Ge 1.0;
        ] }
  in
  let r = BB.solve ~incumbent:[| 1.0; 1.0; 1.0 |] p in
  (match r.BB.best with
  | Some (_, obj) -> Alcotest.(check (float 1e-9)) "optimal 7" 7.0 obj
  | None -> Alcotest.fail "no solution");
  Alcotest.check_raises "bad incumbent rejected"
    (Invalid_argument "Branch_bound.solve: infeasible incumbent") (fun () ->
      ignore (BB.solve ~incumbent:[| 0.0; 0.0; 0.0 |] p))

let test_bb_cutoff () =
  let p =
    { BB.num_vars = 1; minimize = [| 5.0 |];
      constraints = [ c [ (0, 1.0) ] S.Ge 1.0 ] }
  in
  let r = BB.solve ~cutoff:5.0 p in
  Alcotest.(check bool) "cutoff suppresses equal solutions" true
    (r.BB.best = None);
  let r2 = BB.solve ~cutoff:5.1 p in
  Alcotest.(check bool) "cutoff admits better solutions" true
    (r2.BB.best <> None)

let test_lp_pivot_limit () =
  (* The basic max problem needs at least one pivot to leave the
     origin; a zero budget must surface as a typed outcome, not an
     exception. *)
  let p =
    lp 2 [ -3.0; -2.0 ]
      [ c [ (0, 1.0); (1, 1.0) ] S.Le 4.0; c [ (0, 1.0); (1, 3.0) ] S.Le 6.0 ]
  in
  let limit_c = Fbb_obs.Counter.make "lp.pivot_limit" in
  let before = Fbb_obs.Counter.read limit_c in
  (match S.solve ~max_pivots:0 p with
  | S.Pivot_limit -> ()
  | S.Optimal _ | S.Infeasible | S.Unbounded | S.Budget_exhausted ->
    Alcotest.fail "expected pivot limit");
  Alcotest.(check int) "lp.pivot_limit counter bumped" (before + 1)
    (Fbb_obs.Counter.read limit_c);
  (* An ample budget still solves the same problem. *)
  expect_opt "same problem, ample budget" p (-12.0)

let test_bb_counters_match_result () =
  let nodes_c = Fbb_obs.Counter.make "bb.nodes" in
  let pruned_c = Fbb_obs.Counter.make "bb.pruned" in
  let rng = Fbb_util.Rng.create ~seed:321 in
  for _ = 1 to 10 do
    let p = random_problem rng in
    let n0 = Fbb_obs.Counter.read nodes_c in
    let p0 = Fbb_obs.Counter.read pruned_c in
    let r = BB.solve p in
    Alcotest.(check int) "bb.nodes delta equals result.nodes" r.BB.nodes
      (Fbb_obs.Counter.read nodes_c - n0);
    Alcotest.(check bool) "pruned delta bounded by nodes" true
      (let dp = Fbb_obs.Counter.read pruned_c - p0 in
       dp >= 0 && dp <= r.BB.nodes)
  done

let test_bb_node_limit () =
  let rng = Fbb_util.Rng.create ~seed:77 in
  let p = random_problem rng in
  let r = BB.solve ~limits:{ BB.max_nodes = 1; max_seconds = 60.0 } p in
  Alcotest.(check bool) "limited" true (r.BB.nodes <= 2)

(* ----- the bounded simplex on random LPs ------------------------------- *)

(* A random LP that is feasible by construction: x* inside the bounds,
   every row's rhs derived from A x*, with Le rows given slack above
   and Ge rows below. Coefficients and costs take both signs; upper
   bounds are finite or infinite. [kind] then makes it unbounded (a
   fresh column of negative cost in no row, unbounded above) or
   infeasible (a row x_0 <= -1 against x_0 >= 0). *)
let random_lp rng kind =
  let open Fbb_util in
  let n = 2 + Rng.int rng 7 in
  let m = 1 + Rng.int rng 7 in
  let upper =
    Array.init n (fun _ ->
        if Rng.int rng 3 = 0 then Float.infinity else 1.0 +. Rng.float rng 4.0)
  in
  let xstar =
    Array.map
      (fun u -> if Float.is_finite u then Rng.float rng u else Rng.float rng 5.0)
      upper
  in
  let rows =
    List.init m (fun _ ->
        let coeffs = Array.init n (fun _ -> Rng.float rng 6.0 -. 2.0) in
        let lhs = ref 0.0 in
        Array.iteri (fun i a -> lhs := !lhs +. (a *. xstar.(i))) coeffs;
        let terms = Array.to_list (Array.mapi (fun i a -> (i, a)) coeffs) in
        match Rng.int rng 3 with
        | 0 -> c terms S.Le (!lhs +. Rng.float rng 2.0)
        | 1 -> c terms S.Ge (!lhs -. Rng.float rng 2.0)
        | _ -> c terms S.Eq !lhs)
  in
  (* Keep the LP bounded unless asked otherwise: a column with negative
     cost and no upper bound gets a bounding Le row. *)
  let minimize = Array.init n (fun _ -> Rng.float rng 10.0 -. 3.0) in
  let caps =
    List.filter_map
      (fun i ->
        if minimize.(i) < 0.0 && not (Float.is_finite upper.(i)) then
          Some (c [ (i, 1.0) ] S.Le (xstar.(i) +. 1.0))
        else None)
      (List.init n Fun.id)
  in
  let base =
    { S.num_vars = n; minimize; constraints = rows @ caps; upper = Some upper }
  in
  let base_obj = ref 0.0 in
  Array.iteri (fun i ci -> base_obj := !base_obj +. (ci *. xstar.(i))) minimize;
  match kind with
  | `Feasible -> (base, !base_obj)
  | `Unbounded ->
    ( {
        S.num_vars = n + 1;
        minimize = Array.append minimize [| -1.0 |];
        constraints = base.S.constraints;
        upper = Some (Array.append upper [| Float.infinity |]);
      },
      !base_obj )
  | `Infeasible ->
    ({ base with S.constraints = c [ (0, 1.0) ] S.Le (-1.0) :: base.S.constraints }, !base_obj)

let qcheck_random_lps =
  QCheck.Test.make ~name:"bounded simplex classifies random mixed LPs"
    ~count:300 (QCheck.int_range 1 1_000_000) (fun seed ->
      let rng = Fbb_util.Rng.create ~seed in
      let kind =
        match Fbb_util.Rng.int rng 4 with
        | 0 -> `Unbounded
        | 1 -> `Infeasible
        | _ -> `Feasible
      in
      let p, known = random_lp rng kind in
      match (kind, S.solve p) with
      | `Feasible, S.Optimal { objective; solution } ->
        S.check p solution ~eps:1e-6
        && objective <= known +. (1e-7 *. Float.max 1.0 (Float.abs known))
      | `Unbounded, S.Unbounded | `Infeasible, S.Infeasible -> true
      | _, _ -> false)

(* Branch on one variable of a solved LP the way branch and bound does
   and re-optimize both children from the optimal basis in one call
   (one shared refactor): each must agree with a cold solve under the
   same bounds. *)
let qcheck_warm_matches_cold =
  QCheck.Test.make ~name:"warm re-optimization matches a cold solve"
    ~count:300 (QCheck.int_range 1 1_000_000) (fun seed ->
      let rng = Fbb_util.Rng.create ~seed in
      let p, _ = random_lp rng `Feasible in
      let n = p.S.num_vars in
      let lp = S.prepare p in
      let lower = Array.make n 0.0 in
      let upper = Option.get p.S.upper in
      match S.reoptimize lp [| (lower, upper) |] with
      | [| (S.Optimal { solution; _ }, Some basis) |] ->
        let j = Fbb_util.Rng.int rng n in
        let split = Float.floor solution.(j) in
        let down = Array.copy upper and up = Array.copy lower in
        down.(j) <- split;
        up.(j) <- split +. 1.0;
        let children = [| (lower, down); (up, upper) |] in
        let warm = S.reoptimize ~basis lp children in
        Array.for_all2
          (fun (w, _) child ->
            match (w, fst (S.reoptimize lp [| child |]).(0)) with
            | S.Optimal w, S.Optimal c ->
              Float.abs (w.objective -. c.objective)
              <= 1e-9 *. Float.max 1.0 (Float.abs c.objective)
            | S.Infeasible, S.Infeasible -> true
            | _, _ -> false)
          warm children
      | _ -> false)

let suite =
  [
    ("lp max basic", `Quick, test_lp_max_basic);
    ("lp min with equality", `Quick, test_lp_min_with_eq);
    ("lp negative rhs", `Quick, test_lp_negative_rhs);
    ("lp infeasible", `Quick, test_lp_infeasible);
    ("lp unbounded", `Quick, test_lp_unbounded);
    ("lp upper bounds", `Quick, test_lp_upper_bounds);
    ("lp degenerate", `Quick, test_lp_degenerate);
    ("lp duplicate terms", `Quick, test_lp_duplicate_terms);
    ("lp pivot limit", `Quick, test_lp_pivot_limit);
    ("bb vs brute force", `Slow, test_bb_vs_brute_force);
    ("bb proved optimal", `Quick, test_bb_status_optimal);
    ("bb infeasible", `Quick, test_bb_infeasible);
    ("bb warm start", `Quick, test_bb_warm_start);
    ("bb cutoff", `Quick, test_bb_cutoff);
    ("bb node limit", `Quick, test_bb_node_limit);
    ("bb counters match result", `Quick, test_bb_counters_match_result);
    QCheck_alcotest.to_alcotest qcheck_random_lps;
    QCheck_alcotest.to_alcotest qcheck_warm_matches_cold;
  ]
