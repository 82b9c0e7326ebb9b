(** The paper's exact ILP formulation (section 4.2), solved with our own
    branch-and-bound over an LP relaxation.

    Variables: [x(i,j)] (row i assigned level j) and auxiliary [y(j)]
    (level j used at all). Constraints: one timing row per path in Pi,
    one assignment equality per row, the [sum_i x(i,j) <= F y(j)] linking
    rows and [sum_j y(j) <= C].

    Two fidelity/performance options:
    - [reduce]: drop timing constraints dominated by another (same or
      smaller requirement with component-wise larger coefficients) — sound
      and lossless, and essential for the larger designs;
    - a heuristic warm start seeds the incumbent. *)

type strategy =
  | Monolithic
      (** solve the paper's formulation as one 0-1 program — faithful but
          slow, kept for cross-checks and the ablation bench *)
  | Enumerate
      (** enumerate the (at most [C] of [P]) level subsets the [y]
          variables range over and solve each restricted assignment
          problem exactly; provably the same optimum, much faster *)

type config = {
  max_clusters : int;  (** the paper's C *)
  limits : Fbb_ilp.Branch_bound.limits;
      (** global limits: [max_seconds] caps the whole solve, including all
          enumerated subsets *)
  reduce : bool;  (** dominance-prune timing constraints (default true) *)
  strategy : strategy;
  budget : Fbb_util.Budget.t;
      (** cooperative budget: ticked once per enumerated subset and
          threaded into every inner branch-and-bound solve (which ticks
          it per node, sequentially). When it trips the solve stops at
          the next check point and reports the best incumbent so far
          with [timed_out = true]. *)
}

val default_config : config
(** C = 2, default solver limits, reduction on, [Enumerate], unlimited
    budget. *)

type result = {
  levels : int array option;  (** best assignment found, if any *)
  leakage_nw : float option;
  proved_optimal : bool;
  timed_out : bool;  (** node or time limit hit — the paper's "-" case *)
  nodes : int;
  elapsed_s : float;
  constraints_total : int;  (** paper's No.Constr: |Pi| *)
  constraints_solved : int;  (** after dominance reduction *)
}

val reduce_paths : Problem.t -> int list
(** Indices of the timing constraints kept by dominance reduction, in
    decreasing-requirement order. The pairwise scan is sharded across
    the {!Fbb_par.Pool} but depends only on the problem, so the kept
    set is identical at any job count. *)

val formulate :
  kept:int list -> max_clusters:int -> Problem.t -> Fbb_ilp.Branch_bound.problem
(** The raw 0-1 program with one timing row per path index in [kept]
    (all paths, or {!reduce_paths}' output; reduction is the caller's
    job, so it runs once per solve). Exposed for tests that cross-check
    optima. *)

val optimize :
  ?config:config -> ?warm_start:int array -> Problem.t -> result
(** Solve; [warm_start] is a feasible row assignment with at most C
    clusters (e.g. the heuristic's output). An infeasible or over-budget
    warm start is ignored rather than rejected. *)
