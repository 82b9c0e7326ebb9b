(** 0-1 integer linear programming by branch and bound.

    LP-relaxation bounds come from {!Fbb_lp.Simplex}, over one LP per
    solve with [0 <= x <= 1] as bounds: a node tightens bounds and
    re-optimizes warm, with the dual simplex, from its parent's optimal
    basis. Branching is on the most fractional variable, depth-first
    flavoured, exploring the nearest rounding first. A warm-start incumbent (e.g. from the paper's
    heuristic) makes pruning effective immediately. Node and wall-clock
    limits reproduce the paper's "ILP did not converge" behaviour on the
    largest designs.

    The search runs in fixed-width waves: up to 32 open nodes have their
    LP relaxations solved in parallel on the {!Fbb_par.Pool} domain pool,
    then the wave is folded sequentially in node order — incumbent
    updates, pruning bookkeeping, child ordering. The two children of a
    node are solved in one task, sharing one refactor of their parent's
    basis. The pruning threshold
    (incumbent best folded with [?cutoff]) is frozen at the start of each
    wave, so the set of explored nodes, the node count, the winning
    solution and its deterministic tie-breaking (first node in wave order
    wins among equal objectives) are all bit-identical at any job count;
    only wall-clock time and time-budget truncation depend on the
    machine. *)

type problem = {
  num_vars : int;  (** all variables are binary *)
  minimize : float array;
  constraints : Fbb_lp.Simplex.constr list;
}

type limits = {
  max_nodes : int;
  max_seconds : float;
}

val default_limits : limits
(** 200_000 nodes, 60 s. *)

type status =
  | Proved_optimal  (** search exhausted; [best] is the optimum *)
  | Feasible  (** limits hit; [best] is the best incumbent found *)
  | Proved_infeasible
  | Limit_reached  (** limits hit before any feasible point was found *)

type result = {
  status : status;
  best : (float array * float) option;  (** (solution, objective) *)
  nodes : int;
  elapsed_s : float;
}

val solve :
  ?limits:limits -> ?budget:Fbb_util.Budget.t -> ?incumbent:float array ->
  ?cutoff:float -> problem -> result
(** [incumbent], when given, must be a feasible 0/1 vector; it seeds the
    upper bound. Raises [Invalid_argument] if it is infeasible.

    [budget] bounds the search cooperatively: it is consulted before
    each wave and ticked once per expanded node {e in the sequential
    wave fold} (never inside the parallel LP solves), so with a pure
    work budget the set of explored nodes — and hence the incumbent —
    is bit-identical at any job count. When the budget trips, the
    search stops at the wave boundary and reports
    [Feasible]/[Limit_reached] with the best incumbent found so far
    (anytime semantics), exactly like the node or time limits.

    [cutoff] prunes any subtree whose LP bound is not strictly below it —
    useful when an external search already holds a solution of that
    objective; solutions at or above the cutoff are not reported.

    The whole solve runs inside a [bb.solve] observability span, the LP
    relaxations of each pair of siblings inside one [bb.lp_bound]; node,
    prune, incumbent and
    LP-failure events accumulate on the [bb.*] counters (the delta of
    [bb.nodes] over a call equals [result.nodes]). An LP relaxation
    ending in {!Fbb_lp.Simplex.Pivot_limit} abandons that subtree and
    downgrades the result to [Feasible]/[Limit_reached], like a node or
    time budget. *)

val objective_of : problem -> float array -> float
