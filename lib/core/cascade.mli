(** Deadline-bounded anytime solving: a fallback cascade over the
    production solvers.

    The cascade runs the stages

    {v ilp -> heuristic -> single BB v}

    under one shared {!Fbb_util.Budget}, carving each stage a fraction
    of whatever allowance remains when it starts: the subset-enumerating
    ILP gets half (it runs the heuristic first, inside that half, and
    seeds its search with the answer), the heuristic stage the rest. A
    stage's candidate
    is only {e accepted} after an independent sign-off — a plain-loop
    feasibility, range and cluster-count check that shares nothing with
    the solvers' incremental machinery — and the first signed-off
    candidate wins. The final [Single_bb] stage is the unconditional
    floor: it runs even with the budget fully exhausted (it is
    pool-free and linear-time), so the cascade never hangs and always
    returns either a signed-off feasible assignment or a typed
    infeasibility. Infeasibility is only ever claimed through the exact
    {!Problem.max_single_level} proof, never inferred from a budget or
    a crash.

    Each stage attempt is recorded — stage, status, budget spent,
    leakage — forming the degradation report the CLI prints and the
    [cascade.*] counters mirror. Stage crashes (e.g. injected
    ["pool.worker"] faults surfacing as [Worker_error]) are contained:
    the stage is marked [Crashed] and the cascade falls through to the
    next stage. The ["budget.exhaust"] fault site is evaluated at every
    stage entry; when it fires the stage is skipped as if its budget
    had already tripped. *)

type stage = Ilp | Heuristic | Single_bb

val stage_name : stage -> string
(** ["ilp"], ["heuristic"], ["single_bb"]. *)

type status =
  | Accepted  (** candidate passed sign-off and won *)
  | No_candidate  (** stage finished without producing an assignment *)
  | Rejected  (** candidate failed the independent sign-off *)
  | Exhausted  (** stage budget tripped before a usable candidate *)
  | Crashed of string  (** stage raised; the exception, printed *)

type attempt = {
  stage : stage;
  status : status;
  leakage_nw : float option;  (** of the stage's candidate, if any *)
  work_spent : int;  (** budget work units consumed by the stage *)
  elapsed_s : float;
}

type outcome =
  | Solved of {
      stage : stage;  (** the stage whose candidate was accepted *)
      levels : int array;
      leakage_nw : float;
      gap_pct : float option;
          (** optimality-gap bound vs the row-wise leakage lower bound
              [sum_i min_j L(i,j)]; [Some 0.] when the ILP proved
              optimality, [None] when the lower bound is not positive *)
      optimal : bool;  (** the ILP stage proved this optimal *)
    }
  | Infeasible
      (** proved exactly: not even the highest uniform level meets
          timing ([Problem.max_single_level = None]) *)

type result = {
  outcome : outcome;
  attempts : attempt list;  (** in execution order *)
  exhausted : bool;  (** the shared budget had tripped by the end *)
}

val verify : Problem.t -> max_clusters:int -> int array -> bool
(** The sign-off: right length, every level in range, at most
    [max_clusters] distinct levels, and every path's required reduction
    met — all recomputed with plain loops over the problem tables. *)

val solve :
  ?max_clusters:int -> ?budget:Fbb_util.Budget.t -> Problem.t -> result
(** Run the cascade ([max_clusters] defaults to 2; budget defaults to
    unlimited, in which case the ILP stage normally wins). The whole
    run sits inside a [cascade.solve] span with one [cascade.<stage>]
    span per attempted stage. *)
