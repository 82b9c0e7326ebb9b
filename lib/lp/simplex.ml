type relation = Le | Ge | Eq

type constr = {
  terms : (int * float) list;
  relation : relation;
  rhs : float;
}

type problem = {
  num_vars : int;
  minimize : float array;
  constraints : constr list;
  upper : float array option;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Pivot_limit
  | Budget_exhausted

(* Tolerances: smallest usable pivot element, primal bound violation
   (scaled by the bound's magnitude) and reduced-cost sign. *)
let piv_tol = 1e-9
let feas_tol = 1e-9
let dual_tol = 1e-9

(* Observability: totals survive with no sink installed, so callers and
   tests can read them; events only flow once a sink is set up. *)
let solves_c = Fbb_obs.Counter.make "lp.solves"
let pivots_c = Fbb_obs.Counter.make "lp.pivots"
let phase1_c = Fbb_obs.Counter.make "lp.phase1_pivots"
let phase2_c = Fbb_obs.Counter.make "lp.phase2_pivots"
let dual_c = Fbb_obs.Counter.make "lp.dual_pivots"
let refactor_c = Fbb_obs.Counter.make "lp.refactor_pivots"
let bland_c = Fbb_obs.Counter.make "lp.bland_engaged"
let pivot_limit_c = Fbb_obs.Counter.make "lp.pivot_limit"
let budget_stop_c = Fbb_obs.Counter.make "lp.budget_stops"

exception Pivot_limit_hit
exception Budget_hit

let check problem x ~eps =
  let ok = ref true in
  List.iter
    (fun c ->
      let lhs =
        List.fold_left (fun acc (v, a) -> acc +. (a *. x.(v))) 0.0 c.terms
      in
      let sat =
        match c.relation with
        | Le -> lhs <= c.rhs +. eps
        | Ge -> lhs >= c.rhs -. eps
        | Eq -> Float.abs (lhs -. c.rhs) <= eps
      in
      if not sat then ok := false)
    problem.constraints;
  Array.iteri (fun i xi -> if xi < -.eps then ok := false else
    match problem.upper with
    | Some u when xi > u.(i) +. eps -> ok := false
    | Some _ | None -> ()) x;
  !ok

(* ----- the densified problem -------------------------------------------- *)

(* Row i reads [a_i . x + s_i = b_i]: the slack [s_i] carries the
   relation as bounds - [0, inf) for Le, (-inf, 0] for Ge, [0, 0] for
   Eq - so no row is ever added for a bound and no artificial column
   exists. Variables are numbered structurals first ([0, n)), then
   slacks ([n, n + m)). *)
type lp = {
  m : int;
  n : int;
  a : float array;  (* m x n, row-major *)
  b : float array;
  cost : float array;
  slack_lo : float array;
  slack_hi : float array;
}

let prepare problem =
  let n = problem.num_vars in
  let cons = Array.of_list problem.constraints in
  let m = Array.length cons in
  let a = Array.make (m * n) 0.0 in
  Array.iteri
    (fun r c ->
      List.iter
        (fun (v, x) ->
          if v < 0 || v >= n then invalid_arg "Simplex.prepare: variable out of range";
          a.((r * n) + v) <- a.((r * n) + v) +. x)
        c.terms)
    cons;
  let slack_lo =
    Array.map (fun c -> match c.relation with Le | Eq -> 0.0 | Ge -> Float.neg_infinity) cons
  in
  let slack_hi =
    Array.map (fun c -> match c.relation with Ge | Eq -> 0.0 | Le -> Float.infinity) cons
  in
  {
    m;
    n;
    a;
    b = Array.map (fun c -> c.rhs) cons;
    cost = Array.copy problem.minimize;
    slack_lo;
    slack_hi;
  }

(* ----- basis headers ----------------------------------------------------- *)

(* Per-variable state: basic, or nonbasic at its lower / upper bound. *)
let st_basic = 'B'
let st_lower = 'L'
let st_upper = 'U'

(* A basis as the next solve needs it: the state of every variable and
   the basic structurals in ascending order, the order the refactor
   pivots them in. O(n + m), never a tableau. *)
type basis = { state : Bytes.t; basic_structurals : int array }

(* ----- per-domain scratch ------------------------------------------------ *)

(* One tableau per domain, grown on demand and reused by every solve
   that runs there, plus a copy of it as loaded, for sibling solves
   from the same start. Each solve rewrites every cell it reads from
   the problem and its start, so nothing carries over between calls.
   The busy flag hands a fresh workspace to a second solve on the same
   domain (another systhread), which would otherwise clobber this
   one. *)
type ws = {
  busy : bool Atomic.t;
  mutable t : float array;  (* (m + 1) x (n + m + 1) *)
  mutable head : int array;  (* basic variable per row *)
  mutable state : Bytes.t;
  mutable saved_t : float array;
  mutable saved_head : int array;
  mutable saved_state : Bytes.t;
  mutable x : float array;
  mutable lo : float array;
  mutable hi : float array;
  mutable nz : int array;  (* nonzero columns of the pivot row *)
}

let fresh_ws () =
  {
    busy = Atomic.make false;
    t = [||];
    head = [||];
    state = Bytes.empty;
    saved_t = [||];
    saved_head = [||];
    saved_state = Bytes.empty;
    x = [||];
    lo = [||];
    hi = [||];
    nz = [||];
  }

let ws_key = Domain.DLS.new_key fresh_ws

let ensure ws ~m ~nn =
  let cells = (m + 1) * (nn + 1) in
  if Array.length ws.t < cells then begin
    ws.t <- Array.make cells 0.0;
    ws.saved_t <- Array.make cells 0.0
  end;
  if Array.length ws.head < m then begin
    ws.head <- Array.make m 0;
    ws.saved_head <- Array.make m 0
  end;
  if Bytes.length ws.state < nn then begin
    ws.state <- Bytes.make nn st_lower;
    ws.saved_state <- Bytes.make nn st_lower
  end;
  if Array.length ws.x < nn then begin
    ws.x <- Array.make nn 0.0;
    ws.lo <- Array.make nn 0.0;
    ws.hi <- Array.make nn 0.0
  end;
  if Array.length ws.nz < nn + 1 then ws.nz <- Array.make (nn + 1) 0

let with_ws f =
  let ws = Domain.DLS.get ws_key in
  if Atomic.compare_and_set ws.busy false true then
    Fun.protect ~finally:(fun () -> Atomic.set ws.busy false) (fun () -> f ws)
  else f (fresh_ws ())

(* ----- the solver -------------------------------------------------------- *)

(* Work of one call, for the counters. *)
type tally = {
  mutable pivots : int;
  mutable phase1 : int;
  mutable dual : int;
  mutable refactor : int;
}

(* One call's view of the workspace. The tableau holds B^-1 [A | I | b]
   in rows 1..m and the reduced costs in row 0; basic values live in
   [x], carried along each step rather than read off the right-hand
   side. [steps] counts a solve's pivots and bound flips against
   [max_pivots]. *)
type ctx = {
  lp : lp;
  m : int;
  n : int;
  nn : int;  (* n + m variables *)
  stride : int;
  t : float array;
  head : int array;
  state : Bytes.t;
  x : float array;
  lo : float array;
  hi : float array;
  nz : int array;
  tally : tally;
  max_pivots : int;
  budget : Fbb_util.Budget.t;
  mutable steps : int;
}

(* How far [v] lies outside [lo, hi]; 0 within the tolerance. Inlined:
   a float returned from a call is boxed, and this runs per row per
   step. *)
let[@inline] violation ~lo ~hi v =
  if v < lo -. (feas_tol *. (1.0 +. Float.abs lo)) then lo -. v
  else if v > hi +. (feas_tol *. (1.0 +. Float.abs hi)) then v -. hi
  else 0.0

let step c =
  c.steps <- c.steps + 1;
  if c.steps > c.max_pivots then raise Pivot_limit_hit

(* Gauss-Jordan pivot on constraint row [r] (tableau row r + 1), column
   [q], over the pivot row's nonzero columns only. *)
let pivot c r q =
  step c;
  c.tally.pivots <- c.tally.pivots + 1;
  if not (Fbb_util.Budget.tick c.budget) then raise Budget_hit;
  let t = c.t and nz = c.nz and stride = c.stride in
  let pr = (r + 1) * stride in
  let inv = 1.0 /. t.(pr + q) in
  let k = ref 0 in
  for j = 0 to c.nn do
    let v = Array.unsafe_get t (pr + j) in
    if v <> 0.0 then begin
      Array.unsafe_set t (pr + j) (v *. inv);
      Array.unsafe_set nz !k j;
      incr k
    end
  done;
  t.(pr + q) <- 1.0;
  let cnt = !k in
  for i = 0 to c.m do
    let base = i * stride in
    if base <> pr then begin
      let f = Array.unsafe_get t (base + q) in
      if f <> 0.0 then begin
        for k = 0 to cnt - 1 do
          let j = Array.unsafe_get nz k in
          Array.unsafe_set t (base + j)
            (Array.unsafe_get t (base + j) -. (f *. Array.unsafe_get t (pr + j)))
        done;
        Array.unsafe_set t (base + q) 0.0
      end
    end
  done;
  c.head.(r) <- q;
  Bytes.set c.state q st_basic

(* Load [c | 0 | 0] over [A | I | b] - the all-slack basis - and, given
   a header, refactor it: its basic structurals are pivoted in
   ascending order, each into the row of a slack the header leaves
   nonbasic, picking the largest pivot (lowest row on ties). The result
   is a function of the header and the problem alone. A column that
   finds no usable pivot stays nonbasic and its row keeps the slack;
   the phase logic repairs any dual infeasibility that costs. Nothing
   here reads the bounds, so sibling solves share one load. *)
let load c ~basis =
  let t = c.t and n = c.n and m = c.m and stride = c.stride in
  Array.fill t 0 stride 0.0;
  Array.blit c.lp.cost 0 t 0 n;
  for r = 0 to m - 1 do
    let base = (r + 1) * stride in
    Array.blit c.lp.a (r * n) t base n;
    Array.fill t (base + n) m 0.0;
    t.(base + n + r) <- 1.0;
    t.(base + c.nn) <- c.lp.b.(r);
    c.head.(r) <- n + r;
    Bytes.set c.state (n + r) st_basic
  done;
  match basis with
  | None -> ()
  | Some (h : basis) ->
    if Bytes.length h.state <> c.nn then
      invalid_arg "Simplex.reoptimize: basis from a different problem";
    for j = 0 to n - 1 do
      let s = Bytes.get h.state j in
      Bytes.set c.state j (if s = st_basic then st_lower else s)
    done;
    Array.iter
      (fun j ->
        let best = ref (-1) and best_a = ref piv_tol in
        for r = 0 to m - 1 do
          let v = c.head.(r) in
          if v >= n && Bytes.get h.state v <> st_basic then begin
            let a = Float.abs t.(((r + 1) * stride) + j) in
            if a > !best_a then begin
              best_a := a;
              best := r
            end
          end
        done;
        if !best >= 0 then begin
          let r = !best in
          let leaving = c.head.(r) in
          pivot c r j;
          c.tally.refactor <- c.tally.refactor + 1;
          Bytes.set c.state leaving (Bytes.get h.state leaving)
        end)
      h.basic_structurals

let save ws c =
  Array.blit c.t 0 ws.saved_t 0 ((c.m + 1) * c.stride);
  Array.blit c.head 0 ws.saved_head 0 c.m;
  Bytes.blit c.state 0 ws.saved_state 0 c.nn

let restore ws c =
  Array.blit ws.saved_t 0 c.t 0 ((c.m + 1) * c.stride);
  Array.blit ws.saved_head 0 c.head 0 c.m;
  Bytes.blit ws.saved_state 0 c.state 0 c.nn

(* Move nonbasic [j] by [delta], carrying the basic values along. *)
let shift c j delta =
  for i = 0 to c.m - 1 do
    let a = c.t.(((i + 1) * c.stride) + j) in
    if a <> 0.0 then c.x.(c.head.(i)) <- c.x.(c.head.(i)) -. (a *. delta)
  done;
  c.x.(j) <- c.x.(j) +. delta

let boxed c j = c.lo.(j) < c.hi.(j)

let stall_after c = 4 * (c.m + 1)

let note_degenerate c ~degenerate ~bland is_degenerate =
  if is_degenerate then begin
    incr degenerate;
    if !degenerate > stall_after c && not !bland then begin
      Fbb_obs.Counter.incr bland_c;
      bland := true
    end
  end
  else degenerate := 0

(* Dual simplex: the basis is dual feasible; drive out the worst bound
   violation among the basics until none is left. Bland's rule (lowest
   index leaves and, among minimum ratios, enters) takes over after a
   run of degenerate steps. *)
let dual_simplex c ~phase1 =
  let t = c.t and x = c.x and lo = c.lo and hi = c.hi and state = c.state in
  let bland = ref false and degenerate = ref 0 in
  let rec loop () =
    let r = ref (-1) and worst = ref 0.0 in
    for i = 0 to c.m - 1 do
      let v = c.head.(i) in
      let viol = violation ~lo:lo.(v) ~hi:hi.(v) x.(v) in
      if viol > 0.0 then
        if !bland then begin
          if !r < 0 || v < c.head.(!r) then r := i
        end
        else if viol > !worst then begin
          worst := viol;
          r := i
        end
    done;
    if !r < 0 then `Optimal
    else begin
      let r = !r in
      let v = c.head.(r) in
      let raise_it = x.(v) < lo.(v) in
      let target = if raise_it then lo.(v) else hi.(v) in
      let pr = (r + 1) * c.stride in
      let q = ref (-1) and q_ratio = ref Float.infinity and q_a = ref 0.0 in
      for j = 0 to c.nn - 1 do
        let s = Bytes.get state j in
        if s <> st_basic && boxed c j then begin
          let a = t.(pr + j) in
          let eligible =
            if raise_it then (s = st_lower && a < -.piv_tol) || (s = st_upper && a > piv_tol)
            else (s = st_lower && a > piv_tol) || (s = st_upper && a < -.piv_tol)
          in
          if eligible then begin
            let d = if s = st_lower then t.(j) else -.t.(j) in
            let ratio = (if d > 0.0 then d else 0.0) /. Float.abs a in
            let better =
              if !bland then ratio < !q_ratio
              else
                ratio < !q_ratio -. dual_tol
                || (ratio <= !q_ratio +. dual_tol && Float.abs a > Float.abs !q_a)
            in
            if better then begin
              q := j;
              q_ratio := ratio;
              q_a := a
            end
          end
        end
      done;
      if !q < 0 then `Infeasible
      else begin
        let q = !q in
        note_degenerate c ~degenerate ~bland (!q_ratio < dual_tol);
        shift c q ((x.(v) -. target) /. t.(pr + q));
        x.(v) <- target;
        pivot c r q;
        Bytes.set state v (if raise_it then st_lower else st_upper);
        c.tally.dual <- c.tally.dual + 1;
        if phase1 then c.tally.phase1 <- c.tally.phase1 + 1;
        loop ()
      end
    end
  in
  loop ()

(* Primal simplex with bound flipping: a primal feasible basis improves
   the entering column until a basic variable hits a bound (pivot) or
   the entering column reaches its own opposite bound first (flip, no
   pivot). Dantzig pricing, Bland after a stall. *)
let primal_simplex c =
  let t = c.t and x = c.x and lo = c.lo and hi = c.hi and state = c.state in
  let bland = ref false and degenerate = ref 0 in
  let rec loop () =
    let q = ref (-1) and best = ref dual_tol in
    for j = 0 to c.nn - 1 do
      let s = Bytes.get state j in
      if s <> st_basic && boxed c j && not (!bland && !q >= 0) then begin
        let score = if s = st_lower then -.t.(j) else t.(j) in
        if score > !best then begin
          q := j;
          if not !bland then best := score
        end
      end
    done;
    if !q < 0 then `Optimal
    else begin
      let q = !q in
      let dir = if Bytes.get state q = st_lower then 1.0 else -1.0 in
      let range = hi.(q) -. lo.(q) in
      let r = ref (-1) and lim = ref Float.infinity and r_a = ref 0.0 in
      for i = 0 to c.m - 1 do
        let a = t.(((i + 1) * c.stride) + q) in
        if Float.abs a > piv_tol then begin
          let v = c.head.(i) in
          let rate = -.dir *. a in
          let gap = if rate < 0.0 then x.(v) -. lo.(v) else hi.(v) -. x.(v) in
          let room = (if gap > 0.0 then gap else 0.0) /. Float.abs rate in
          if Float.is_finite room then begin
            let better =
              room < !lim -. feas_tol
              || room <= !lim +. feas_tol
                 && (if !bland then !r >= 0 && v < c.head.(!r)
                     else Float.abs a > Float.abs !r_a)
            in
            if better then begin
              r := i;
              lim := room;
              r_a := a
            end
          end
        end
      done;
      if !r < 0 && not (Float.is_finite range) then `Unbounded
      else if !r < 0 || range <= !lim then begin
        (* The entering column hits its own bound first: flip it. *)
        step c;
        shift c q (dir *. range);
        x.(q) <- (if dir > 0.0 then hi.(q) else lo.(q));
        Bytes.set state q (if dir > 0.0 then st_upper else st_lower);
        degenerate := 0;
        loop ()
      end
      else begin
        let r = !r in
        let v = c.head.(r) in
        let to_lower = -.dir *. !r_a < 0.0 in
        note_degenerate c ~degenerate ~bland (!lim < feas_tol);
        shift c q (dir *. !lim);
        x.(v) <- (if to_lower then lo.(v) else hi.(v));
        pivot c r q;
        Bytes.set state v (if to_lower then st_lower else st_upper);
        loop ()
      end
    end
  in
  loop ()

let primal_feasible c =
  let ok = ref true in
  for i = 0 to c.m - 1 do
    let v = c.head.(i) in
    if violation ~lo:c.lo.(v) ~hi:c.hi.(v) c.x.(v) > 0.0 then ok := false
  done;
  !ok

let dual_infeasible c j =
  let s = Bytes.get c.state j in
  s <> st_basic && boxed c j
  && ((s = st_lower && c.t.(j) < -.dual_tol) || (s = st_upper && c.t.(j) > dual_tol))

(* Flip every dual-infeasible nonbasic to its other bound; false when
   one has no finite bound to flip to. *)
let repair_dual c =
  let ok = ref true in
  for j = 0 to c.nn - 1 do
    if dual_infeasible c j then begin
      let to_upper = Bytes.get c.state j = st_lower in
      let target = if to_upper then c.hi.(j) else c.lo.(j) in
      if Float.is_finite target then begin
        shift c j (target -. c.x.(j));
        c.x.(j) <- target;
        Bytes.set c.state j (if to_upper then st_upper else st_lower)
      end
      else ok := false
    end
  done;
  !ok

(* Row 0 from the true costs under the current basis. *)
let price c =
  let t = c.t in
  Array.fill t 0 c.stride 0.0;
  Array.blit c.lp.cost 0 t 0 c.n;
  for r = 0 to c.m - 1 do
    let v = c.head.(r) in
    let cost = if v < c.n then c.lp.cost.(v) else 0.0 in
    if cost <> 0.0 then begin
      let base = (r + 1) * c.stride in
      for j = 0 to c.nn do
        t.(j) <- t.(j) -. (cost *. t.(base + j))
      done
    end
  done

let finish c = function
  | `Unbounded -> (Unbounded, None)
  | `Infeasible -> (Infeasible, None)
  | `Optimal ->
    let solution = Array.sub c.x 0 c.n in
    let objective = ref 0.0 in
    for j = 0 to c.n - 1 do
      objective := !objective +. (c.lp.cost.(j) *. solution.(j))
    done;
    let bs = ref [] in
    for j = c.n - 1 downto 0 do
      if Bytes.get c.state j = st_basic then bs := j :: !bs
    done;
    ( Optimal { objective = !objective; solution },
      Some { state = Bytes.sub c.state 0 c.nn; basic_structurals = Array.of_list !bs } )

(* Solve a loaded tableau under [lower, upper]. Cold, each structural
   starts at the bound its cost prefers. The method follows from the
   start: primal feasible - primal simplex; dual feasible once boxed
   columns are flipped to their preferred bound - dual simplex; neither
   - phase 1. *)
let solve_loaded c ~cold ~lower ~upper =
  let n = c.n and nn = c.nn and lo = c.lo and hi = c.hi and x = c.x in
  let state = c.state in
  Array.blit lower 0 lo 0 n;
  Array.blit upper 0 hi 0 n;
  Array.blit c.lp.slack_lo 0 lo n c.m;
  Array.blit c.lp.slack_hi 0 hi n c.m;
  if cold then
    for j = 0 to n - 1 do
      Bytes.set state j
        (if c.lp.cost.(j) < 0.0 && Float.is_finite hi.(j) then st_upper else st_lower)
    done;
  (* Nonbasic values from their states; a state pointing at an infinite
     bound moves to the finite one. Then the basic values, from the
     right-hand side and the nonbasics off zero. *)
  let off_zero = c.nz and k = ref 0 in
  for j = 0 to nn - 1 do
    let s = Bytes.get state j in
    if s <> st_basic then begin
      let s =
        if s = st_upper && not (Float.is_finite hi.(j)) then st_lower
        else if s = st_lower && not (Float.is_finite lo.(j)) && Float.is_finite hi.(j)
        then st_upper
        else s
      in
      Bytes.set state j s;
      x.(j) <-
        (if s = st_upper then hi.(j)
         else if Float.is_finite lo.(j) then lo.(j)
         else 0.0);
      if x.(j) <> 0.0 then begin
        off_zero.(!k) <- j;
        incr k
      end
    end
  done;
  for r = 0 to c.m - 1 do
    let base = (r + 1) * c.stride in
    let v = ref c.t.(base + nn) in
    for i = 0 to !k - 1 do
      let j = off_zero.(i) in
      v := !v -. (c.t.(base + j) *. x.(j))
    done;
    x.(c.head.(r)) <- !v
  done;
  if primal_feasible c then finish c (primal_simplex c)
  else if repair_dual c then finish c (dual_simplex c ~phase1:false)
  else begin
    (* Phase 1: zero the reduced costs no flip can repair (a column
       below cost with no bound to flip to) - a cost shift that makes
       the basis dual feasible - and run the dual simplex to a primal
       feasible basis. Its infeasibility verdict holds for any costs.
       Then restore the true costs and finish with the primal. *)
    for j = 0 to nn - 1 do
      if dual_infeasible c j then c.t.(j) <- 0.0
    done;
    match dual_simplex c ~phase1:true with
    | `Infeasible -> (Infeasible, None)
    | `Optimal ->
      price c;
      finish c (primal_simplex c)
  end

let crossed (lower : float array) (upper : float array) =
  let r = ref false in
  for j = 0 to Array.length lower - 1 do
    if lower.(j) > upper.(j) then r := true
  done;
  !r

let default_max_pivots (lp : lp) = 200 * (lp.m + lp.n + lp.m + 10)

let reoptimize ?max_pivots ?(budget = Fbb_util.Budget.unlimited) ?basis
    (lp : lp) bounds =
  let m = lp.m and n = lp.n in
  let nn = n + m in
  let tally = { pivots = 0; phase1 = 0; dual = 0; refactor = 0 } in
  let max_pivots =
    match max_pivots with Some p -> p | None -> default_max_pivots lp
  in
  let last = Array.length bounds - 1 in
  let results =
    with_ws (fun ws ->
        ensure ws ~m ~nn;
        let c =
          {
            lp; m; n; nn; stride = nn + 1;
            t = ws.t; head = ws.head; state = ws.state;
            x = ws.x; lo = ws.lo; hi = ws.hi; nz = ws.nz;
            tally; max_pivots; budget; steps = 0;
          }
        in
        (* Steps the shared load took: each solve starts its count there,
           as if it had loaded alone. *)
        let loaded = ref None in
        Array.mapi
          (fun i (lower, upper) ->
            Fbb_obs.Counter.incr solves_c;
            if Fbb_fault.Fault.fire "lp.pivot_limit" then begin
              Fbb_obs.Counter.incr pivot_limit_c;
              (Pivot_limit, None)
            end
            else if Fbb_util.Budget.exhausted budget then begin
              Fbb_obs.Counter.incr budget_stop_c;
              (Budget_exhausted, None)
            end
            else if crossed lower upper then (Infeasible, None)
            else
              match
                (match !loaded with
                | Some steps ->
                  restore ws c;
                  c.steps <- steps
                | None ->
                  c.steps <- 0;
                  load c ~basis;
                  if i < last then save ws c;
                  loaded := Some c.steps);
                solve_loaded c ~cold:(basis = None) ~lower ~upper
              with
              | r -> r
              | exception Pivot_limit_hit ->
                Fbb_obs.Counter.incr pivot_limit_c;
                (Pivot_limit, None)
              | exception Budget_hit ->
                Fbb_obs.Counter.incr budget_stop_c;
                (Budget_exhausted, None))
          bounds)
  in
  Fbb_obs.Counter.add pivots_c tally.pivots;
  Fbb_obs.Counter.add phase1_c tally.phase1;
  Fbb_obs.Counter.add phase2_c (tally.pivots - tally.phase1);
  Fbb_obs.Counter.add dual_c tally.dual;
  Fbb_obs.Counter.add refactor_c tally.refactor;
  results

let solve ?max_pivots ?budget problem =
  let lp = prepare problem in
  let upper =
    match problem.upper with
    | Some u -> u
    | None -> Array.make problem.num_vars Float.infinity
  in
  fst (reoptimize ?max_pivots ?budget lp [| (Array.make problem.num_vars 0.0, upper) |]).(0)
