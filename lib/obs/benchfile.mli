(** Bench session records ([bench.json], schema "fbb-bench-2") and the
    regression comparison behind [fbbopt bench-compare].

    A record captures per-experiment wall seconds, counter totals,
    per-span latency statistics with histogram percentiles,
    whole-process GC totals and domain-pool utilization. [compare]
    diffs two records: experiment seconds and GC allocation totals
    gate (relative threshold plus an absolute noise floor), the
    deterministic work counters ({!work_counters}) gate on any
    increase, and other counters are reported but informational. Files
    with the older "fbb-bench-1" schema still load — absent sections
    come back empty and their gates are skipped — and a ["gauges"]
    section, which older harness runs with live telemetry wrote, is
    ignored. *)

type span_stat = {
  count : int;
  total_s : float;
  mean_s : float;
  p50_s : float;  (** NaN when the record carries no percentile *)
  p90_s : float;
  p99_s : float;
  max_s : float;
}

type pool_stat = {
  label : string;  (** ["w<i>"] per worker slot, or ["caller"] *)
  busy_s : float;
  idle_s : float;
  tasks : int;
}

type t = {
  jobs : int;
  experiments : (string * float) list;  (** name, wall seconds *)
  counters : (string * int) list;
  spans : (string * span_stat) list;
  gc : Gcprof.sample;  (** whole-process totals at record time *)
  pool : pool_stat list;
}

val make :
  jobs:int ->
  experiments:(string * float) list ->
  counters:(string * int) list ->
  pool:(string * float * float * int) list ->
  Aggregate.t ->
  t
(** Build a record from a finished session: span statistics and
    percentiles come from the aggregate, GC totals from
    [Gc.quick_stat] at call time, [pool] from
    [Fbb_par.Pool.utilization ()] (passed in because [fbb_par] depends
    on this library, not the other way around). *)

val to_json : t -> Fbb_util.Json.t
val of_json : Fbb_util.Json.t -> (t, string) result

val save : t -> path:string -> unit

val load : string -> (t, string) result
(** Parse and I/O failures come back as [Error] — bench-compare turns
    them into exit code 2. *)

type verdict = {
  key : string;
      (** ["exp:<name>"], ["gc:minor_words"], ["counter:<name>"] *)
  old_v : float;
  new_v : float;
  change_pct : float;  (** +10.0 = new is 10% bigger; [infinity] from 0 *)
  gated : bool;
  regressed : bool;
}

type comparison = {
  verdicts : verdict list;
  missing : string list;  (** gated keys of the old record absent in the new *)
}

val work_counters : string list
(** [lp.pivots], [bb.nodes], [ilp.subsets_considered],
    [sta.nodes_repropagated], [heuristic.moves]: solver work that a
    work-budgeted bench repeats exactly, so it gates at zero
    tolerance. *)

val compare : max_regress_pct:float -> t -> t -> comparison
(** [compare ~max_regress_pct old new_]: a gated metric is [regressed]
    when it grew by more than [max_regress_pct] percent {e and} by
    more than an absolute noise floor (50 ms for seconds, 1e6 words
    for GC); a work counter is [regressed] when it grew at all.
    Experiments and work counters present in [old] but not in [new_]
    land in [missing]; extra ones in [new_] are ignored. *)

val regressed : comparison -> bool

val render : comparison -> string
(** Text table of all verdicts plus one line per missing key. *)
