(** In-memory aggregating sink: per-span-name duration statistics
    (count / total / mean / max and p50/p90/p99, all from [Span_end]
    durations), per-span GC deltas, counter totals and last gauge
    values, rendered as a text report or CSV. Cells with no data (a
    span with no GC events) render as "-".

    The percentiles come from histograms private to the aggregate, not
    from the {!Histogram} registry: an aggregate covers one window (a
    bench session, one [--profile] run, one replayed trace), while the
    registry accumulates over the whole process. [Hist_record] events,
    which traces recorded before span closes stopped emitting them
    carry one per [Span_end], are ignored, so such a trace replays to
    the same report. *)

type t

val create : unit -> t
val sink : t -> Sink.t

val span_stat : t -> string -> (int * float * float) option
(** [(count, total_s, max_s)] for a span name, if ever completed. *)

val counter_total : t -> string -> int option

val span_percentiles : t -> string -> (float * float * float) option
(** [(p50, p90, p99)] seconds for a span name. *)

val gc_stat : t -> string -> Gcprof.sample option
(** Summed GC deltas attributed to a span name ([top_heap_words] is
    the max seen). *)

val span_rows : t -> (string * int * float * float * float) list
(** [(name, count, total_s, mean_s, max_s)], heaviest first. *)

val counter_rows : t -> (string * int) list
val gauge_rows : t -> (string * float) list

val gc_rows : t -> (string * Gcprof.sample) list
(** Per-span GC deltas in first-completion span order. *)

val report : t -> string
(** Per-stage text report (Fbb_util.Texttab tables). *)

val to_csv : t -> Fbb_util.Csv.t
(** Machine-readable dump: kind,name,count,total_s,mean_s,p50_s,p90_s,
    p99_s,max_s,gc_minor_words,gc_major_words. *)
