(** The observability event model: everything a sink can observe.

    Span begin/end events come in balanced pairs even when the spanned
    computation raises, and carry the id of the domain that ran them so
    converters can rebuild per-domain stacks from the interleaved
    stream. Counter events carry {e deltas} batched at span boundaries,
    never totals, so a trace attributes increments to the innermost
    open span. [Gc_sample] is the GC counter delta across one span on
    the span's own domain ([top_heap_words] is the absolute high-water
    mark). [Hist_record] is load-only: nothing emits it, but traces
    recorded when every span close also wrote its duration as an "H"
    line still parse into it. *)

type t =
  | Span_begin of {
      name : string;
      ts : float;
      depth : int;
      dom : int;
      trace : string;
          (** trace id of the originating request's {!Context}, [""]
              when the span ran outside any traced request *)
    }
  | Span_end of {
      name : string;
      ts : float;
      dur_s : float;
      depth : int;
      dom : int;
      trace : string;
    }
  | Counter_add of { name : string; delta : int; ts : float }
  | Gauge_set of { name : string; value : float; ts : float }
  | Hist_record of { name : string; value : float; ts : float }
      (** load-only: parsed from old traces, never emitted *)
  | Gc_sample of {
      name : string;
      minor_words : float;
      major_words : float;
      minor_collections : int;
      major_collections : int;
      top_heap_words : int;
      ts : float;
    }

val name : t -> string
val ts : t -> float

val to_json : t -> string
(** One-line JSON object. The ["ph"] field mirrors Chrome trace_event
    phase letters (B/E/C) plus extensions "G" (gauge), "H" (histogram
    observation, old traces only) and "M" (GC sample); timestamps are seconds
    (trace_event wants microseconds — {!Trace_export} rescales). *)

val escape : string -> string
(** JSON string-body escaping (exposed for sinks that render JSON). *)
