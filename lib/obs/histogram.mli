(** Lock-free log-bucketed histograms (HDR-style).

    Fixed log-linear bucket grid — 16 sub-buckets per power of two
    from 2^-40 to 2^24 (seconds, when used for latencies), plus a
    zero/negative bucket — with exact atomic count, sum and max kept
    alongside. All updates are atomic fetch-and-add or CAS retries, so
    domains observe concurrently without locks; percentile estimates
    carry at most one bucket width (6.25%) of relative error and are
    capped at the exact max.

    Like counters, histograms accumulate with or without a sink, and
    observing emits no event. {!Span.with_} observes every span's
    duration into a registry histogram of the same name, so the
    telemetry sampler and [/metrics] report percentiles for every span;
    offline readers ({!Aggregate}, {!Trace_export}) rebuild the same
    distribution from [Span_end] events. *)

type t

val create : string -> t
(** A free-standing histogram (not registered). *)

val make : string -> t
(** Registry histogram: idempotent and thread-safe per name, like
    [Counter.make]. *)

val name : t -> string

val observe : ?exemplar:string -> t -> float -> unit
(** Record one value (lock-free; no event). Zero, negative and NaN
    values land in the dedicated bottom bucket and count toward
    [count] but not [max]. [?exemplar] attaches a trace id to the
    value's bucket when {!enable_exemplars} has been called
    (last-writer-wins; ignored otherwise, and when [""]). *)

(** {2 Exemplars}

    Each bucket can remember the trace id of the last observation that
    landed in it, so a scraped percentile links back to one concrete
    request. An exemplar is a single immutable block swapped with one
    atomic store: concurrent writers race by whole exemplars — a
    reader can never see the trace id of one observation with the
    value of another. *)

type exemplar = { ex_trace : string; ex_value : float; ex_ts : float }

val enable_exemplars : t -> unit
(** Allocate the per-bucket exemplar slots (idempotent). Call before
    concurrent observation starts: a racing observer may skip its
    exemplar while the array appears, never corrupt one. *)

val exemplars_enabled : t -> bool

val exemplar_of_bucket : t -> int -> exemplar option
(** The bucket's current exemplar ([None] out of range, when disabled,
    or when nothing traced landed there yet). *)

val exemplar_for : t -> float -> exemplar option
(** Exemplar of the bucket that value [v] falls into. *)

val bucket_upper : int -> float
(** Inclusive upper edge of bucket [i] on the log-linear grid (0.0 for
    the zero/negative bucket) — the [le] edge {!Promtext} renders. *)

val count : t -> int
val sum : t -> float
val max_value : t -> float
val mean : t -> float
(** NaN when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for p in [0,1]: smallest bucket upper edge whose
    cumulative count reaches rank [ceil (p * count)], capped at the
    exact max. NaN when empty. *)

val percentile_opt : t -> float -> float option
(** Like {!percentile} but [None] when the histogram is empty, so
    callers cannot mistake "no data" for a real latency. Dashboards
    render the [None] case as "-". *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val nonzero_buckets : t -> (int * int) list
(** [(bucket index, count)] for every non-empty bucket, ascending —
    the full distribution state, for tests and serialization. *)

val merge_into : src:t -> dst:t -> unit
(** Add [src]'s buckets, count, sum into [dst]; max is the pairwise
    max. [src] is read atomically bucket-by-bucket, so merging a live
    histogram yields a consistent-enough snapshot. *)

val union : t -> t -> t
(** Fresh histogram holding the merge of both (named after the
    first). Associative and commutative on bucket counts, counts and
    maxes (float sums associate only approximately). *)

val copy : t -> t
(** Fresh free-standing snapshot of [t] (same name, not registered).
    Safe on a live histogram, with the same torn-but-monotone snapshot
    guarantee as {!merge_into}. *)

val interval_sub : newer:t -> older:t -> t
(** [interval_sub ~newer ~older] is the distribution of observations
    made between the [older] and [newer] cumulative snapshots of one
    histogram: bucket-wise and count differences clamped at zero.
    [max] is carried over from [newer] (cumulative — a true interval
    max is not recoverable), so interval percentiles remain capped by
    a real observed value. *)

(** {2 Plain snapshots}

    Allocation-light interval readings for the telemetry sampler.
    {!copy}/{!interval_sub} materialize full histograms (~1k [Atomic.t]
    cells — shared-heap allocations that contend with a parallel
    workload); a {!snapshot} is a plain array, so per-tick sampling of
    every active histogram stays in the microseconds. *)

type snapshot
(** An immutable, atomics-free copy of a histogram's cumulative
    state, owned by whoever took it. *)

val snapshot : t -> snapshot
(** Consistent-enough copy of a live histogram (same torn-but-monotone
    guarantee as {!merge_into}). *)

val snapshot_count : snapshot -> int
(** Cumulative observation count at snapshot time — compare across
    ticks to detect an idle histogram without touching its buckets. *)

val interval_count : ?since:snapshot -> snapshot -> int
(** Observations made between [since] and the newer snapshot (clamped
    at zero). Without [since]: since process start. *)

val interval_percentile : ?since:snapshot -> snapshot -> float -> float option
(** Percentile of the observations made between [since] and the newer
    snapshot, [None] when that interval is empty. Capped at the
    newer snapshot's cumulative max, like {!interval_sub}. *)

val reset : t -> unit
val reset_all : unit -> unit
(** Reset every registry histogram. *)

val registered : unit -> t list
(** Registry histograms in first-registration order. *)
