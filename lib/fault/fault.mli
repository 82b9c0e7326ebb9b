(** Seeded deterministic fault-injection registry.

    Faults fire at {b named sites} compiled into the production code
    (each is a plain function call, disabled by default and costing
    one atomic load):

    - ["pool.worker"] — a hard exception inside a {!Fbb_par.Pool}
      task; the pool quarantines the chunk and re-raises it at the
      join point as [Worker_error] with the failing task index;
    - ["pool.transient"] — a transient task failure; the pool retries
      the chunk with bounded deterministic backoff;
    - ["lp.pivot_limit"] — forces one {!Fbb_lp.Simplex} solve, warm or
      cold, to report [Pivot_limit] without solving, exercising the B&B
      and cascade degradation paths;
    - ["io.transient"] — a transient I/O error inside
      {!Fbb_util.Atomic_io.write_atomic} (installed by
      {!install_io_faults}); the write is retried, and the crash-safe
      protocol guarantees the destination is never corrupted;
    - ["budget.exhaust"] — {!Fbb_core.Cascade} treats the current
      stage's budget as exhausted on entry;
    - ["serve.solver_crash"] — kills the {!Fbb_serve.Server} solver
      thread after a batch is popped; the watchdog fails the in-flight
      requests as [Faulted] and restarts the solver;
    - ["serve.solver_stall"] — parks the solver past its stall
      threshold so the watchdog's heartbeat detection retires it.

    {b Determinism.} Whether the [n]-th evaluation of a site fires is
    a pure function of [(seed, site, n)] — a splitmix64 hash compared
    against the configured rate — so a fault run is replayable from
    its [RATE,SEED] pair alone. Evaluation ordinals are per-site
    atomic counters; under a parallel pool the set of firing ordinals
    is fixed even though which domain observes them is not.

    The referee side of a fuzz run (oracle, invariant checker) wraps
    itself in {!with_paused} so faults never corrupt ground truth. *)

exception Injected of { site : string; ordinal : int }
(** A hard injected fault. *)

exception Transient of { site : string; ordinal : int }
(** An injected fault the raising site is expected to retry. *)

val configure : rate:float -> seed:int -> unit
(** Enable injection: each site evaluation fires with probability
    [rate] (clamped to [0..1]), deterministically in [seed]. Resets
    all per-site counters and statistics. *)

val set_site_rate : string -> float -> unit
(** Override the firing rate for one site (clamped to [0..1]),
    keeping the configured seed. Call {b after} {!configure}, which
    resets all overrides. With a global rate of [0.0] this targets a
    chaos run at exactly the named sites. *)

val clear : unit -> unit
(** Disable injection and reset counters (including site-rate
    overrides). *)

val active : unit -> bool
(** Whether injection is configured and not paused. *)

val with_paused : (unit -> 'a) -> 'a
(** Run [f] with injection suspended (nestable) — the referee escape
    hatch. Counters do not advance while paused. *)

val fire : string -> bool
(** Evaluate the site once: [true] when a fault should be injected
    here. Always [false] when not {!active}. *)

val inject : string -> unit
(** [if fire site then raise (Injected ...)]. *)

val inject_transient : string -> unit
(** [if fire site then raise (Transient ...)]. *)

val is_transient : exn -> bool
(** Recognize {!Transient} (used by retry loops). *)

val install_io_faults : unit -> unit
(** Wire ["io.transient"] into {!Fbb_util.Atomic_io}: the [Write]
    phase hook raises {!Transient} when the site fires, and the
    transient predicate recognizes it so the write is retried. *)

val stats : unit -> (string * int * int) list
(** [(site, evaluations, injections)] per site touched since the last
    {!configure}/{!clear}, sorted by site name. *)
