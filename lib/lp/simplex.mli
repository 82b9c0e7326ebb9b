(** Bounded-variable simplex for linear programs, with warm
    re-optimization under changing bounds

    {v minimize c.x  subject to  A x (<= | >= | =) b,  l <= x <= u v}

    Replaces the paper's [lp_solve] dependency, and works the way it
    does under branch and bound. Every constraint row gets a slack
    whose bounds encode the relation ([[0, inf)] for [Le],
    [(-inf, 0]] for [Ge], fixed at 0 for [Eq]); variable bounds are
    handled in the ratio tests, by bound flipping, and never become
    rows. There are no artificial columns.

    A solve picks its method from its start:
    - a primal feasible start runs the primal simplex, whose ratio test
      flips a column to its opposite bound instead of pivoting when
      that bound comes first;
    - a dual feasible start — a previous optimal basis after a bound was
      tightened, or the cold start when every column can sit at the
      bound its cost prefers (always so when all columns are boxed) —
      runs the dual simplex;
    - only a start that is neither runs phase 1: the dual simplex on
      costs shifted to make the start dual feasible, followed by the
      primal simplex on the true costs.

    The tableau is dense, one per domain, reused by every solve there;
    a warm start is a {!basis} header, refactored into that tableau,
    and sibling solves from one header share one refactor
    ({!reoptimize}).
    Bland's rule takes over after a stall, so every phase terminates.
    Suitable for the problem sizes this repository produces (hundreds
    of rows and columns). *)

type relation = Le | Ge | Eq

type constr = {
  terms : (int * float) list;  (** (variable, coefficient) pairs *)
  relation : relation;
  rhs : float;
}

type problem = {
  num_vars : int;
  minimize : float array;  (** objective coefficients, length [num_vars] *)
  constraints : constr list;
  upper : float array option;
      (** optional per-variable upper bounds (infinite when absent) *)
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Pivot_limit
      (** the pivot budget ran out before the solve converged
          (numerically hostile instance); no conclusion about the
          problem can be drawn *)
  | Budget_exhausted
      (** the caller-supplied {!Fbb_util.Budget} tripped mid-solve; no
          conclusion about the problem can be drawn *)

val solve : ?max_pivots:int -> ?budget:Fbb_util.Budget.t -> problem -> outcome
(** Cold solve over [0 <= x <= upper]: {!reoptimize} of {!prepare}d
    [problem] with no start.

    [max_pivots] defaults to a generous function of the problem size;
    exceeding it yields [Pivot_limit] (and bumps the [lp.pivot_limit]
    observability counter) so callers can degrade gracefully instead of
    crashing. Bound flips count against it like pivots.

    [budget] is ticked once per pivot (cost 1); when it trips the
    solver abandons the tableau and returns {!Budget_exhausted}.
    {b Determinism caveat:} ticking a shared budget from LP solves that
    run inside the parallel pool makes the trip point depend on
    scheduling — pass per-solve {!Fbb_util.Budget.sub} slices, or tick
    only from sequential driver loops, when bit-identical results
    across job counts matter.

    The ["lp.pivot_limit"] fault-injection site is evaluated once per
    solve, warm or cold; when it fires, the solver reports [Pivot_limit]
    immediately without touching the tableau, exercising callers'
    degradation paths.

    Work lands on the [lp.*] counters of {!Fbb_obs.Counter}:
    [lp.solves]; [lp.pivots], every tableau pivot, of which
    [lp.refactor_pivots] rebuild a warm start, [lp.dual_pivots] are
    dual simplex steps and [lp.phase1_pivots] belong to phase 1
    ([lp.phase2_pivots] is the rest); [lp.bland_engaged]. *)

val check : problem -> float array -> eps:float -> bool
(** Feasibility check of a candidate solution (used in tests and by the
    ILP layer to validate incumbents). *)

(** {2 Warm re-optimization} *)

type lp
(** A problem densified once, for repeated solves under changing
    variable bounds. Immutable; safe to share across domains. *)

val prepare : problem -> lp
(** Raises [Invalid_argument] on a term whose variable is out of
    range. [problem.upper] is ignored: bounds come with each solve. *)

type basis
(** A basis header: which variables are basic, and which nonbasic ones
    sit at their upper bound. O(rows + variables) words — no tableau. *)

val reoptimize :
  ?max_pivots:int -> ?budget:Fbb_util.Budget.t -> ?basis:basis -> lp ->
  (float array * float array) array -> (outcome * basis option) array
(** [reoptimize lp bounds] solves [lp] once per [(lower, upper)] in
    [bounds] (per structural variable; infinite entries allowed), in
    order, and returns each outcome with, when it is [Optimal], the
    optimal basis for warm-starting a solve under tighter bounds.

    Without [basis] each solve starts cold: all-slack basis, each
    structural at the bound its cost prefers. With [basis] — a previous
    optimal basis of the same [lp] — the header is refactored by
    pivoting its basic columns in ascending order into the all-slack
    tableau (largest pivot, lowest row on ties), so the starting
    tableau is a pure function of the header and the problem, never of
    what the scratch tableau held before. After bounds are tightened
    the basis stays dual feasible and a solve is a few dual simplex
    pivots.

    The start is loaded (and refactored) once; later solves copy the
    loaded tableau back, which gives the same bits as loading again:
    siblings under branch and bound pay for one refactor between them.
    Each entry is one solve for the fault site, the budget check and
    [lp.solves]; the shared refactor pivots count once on [lp.pivots],
    and against each solve's [max_pivots] as if it had loaded alone.
    [max_pivots], [budget] and the fault site otherwise behave as in
    {!solve}. Raises [Invalid_argument] if [basis] comes from a problem
    of another shape. *)
