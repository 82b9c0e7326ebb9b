(** Hierarchical timed spans. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f] inside a named span. Nests; the end event
    is emitted even when [f] raises, so traces stay balanced. With no
    sink installed this is a single atomic load plus a call to [f].
    Depth is tracked per domain and every span event carries its
    domain id, so spans opened on pool workers nest against their own
    ancestry and the interleaved stream stays reconstructible.

    Closing a span emits [Span_end] (which carries the duration) and,
    when {!Gcprof} is enabled, a [Gc_sample] with the span's GC deltas.
    It also observes the duration into the registry histogram of the
    same name, with no event, so the telemetry sampler and [/metrics]
    see per-span percentiles. *)

val current_depth : unit -> int
(** Nesting depth of the calling domain's innermost open span (0
    outside any span). Only meaningful while a sink is installed. *)
