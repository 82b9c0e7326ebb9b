(* The observability event model. Every instrumentation primitive reduces
   to one of six events; sinks only ever see this type, so adding a sink
   never touches instrumented code.

   Span begin/end events always come in balanced pairs (Span.with_ emits
   the end even when the body raises) and carry the integer id of the
   domain that ran them, so offline converters can rebuild one coherent
   stack per domain from the interleaved stream. Counter events carry
   deltas, not totals: they are flushed at span boundaries so a trace
   attributes each increment to the innermost span that was open when it
   happened. Hist_record is load-only: nothing emits it any more, but
   traces recorded when span closes still did (one per Span_end,
   repeating its dur_s) parse into it, so they keep loading. Gc_sample
   carries the GC-counter deltas across one span, measured on the
   span's own domain. *)

type t =
  | Span_begin of {
      name : string;
      ts : float;
      depth : int;
      dom : int;
      trace : string;  (* originating request's trace id; "" untraced *)
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
      (* load-only: parsed from old traces, never emitted *)
  | Gc_sample of {
      name : string;  (* the span the deltas are attributed to *)
      minor_words : float;
      major_words : float;
      minor_collections : int;
      major_collections : int;
      top_heap_words : int;  (* absolute high-water mark, not a delta *)
      ts : float;
    }

let name = function
  | Span_begin { name; _ }
  | Span_end { name; _ }
  | Counter_add { name; _ }
  | Gauge_set { name; _ }
  | Hist_record { name; _ }
  | Gc_sample { name; _ } -> name

let ts = function
  | Span_begin { ts; _ }
  | Span_end { ts; _ }
  | Counter_add { ts; _ }
  | Gauge_set { ts; _ }
  | Hist_record { ts; _ }
  | Gc_sample { ts; _ } -> ts

(* Minimal JSON string escaping; names are controlled identifiers but a
   sink must never emit an unparseable line whatever it is handed. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One JSON object per event. "ph" mirrors the Chrome trace_event phase
   letters (B/E/C) plus our own extensions ("G" gauges, "H" histogram
   observations, "M" GC samples) so a converter only has to rescale
   timestamps to microseconds. *)
let to_json ev =
  (* Untraced spans omit the field entirely, keeping old-trace tooling
     and byte-for-byte output for non-request workloads unchanged. *)
  let trace_field trace =
    if trace = "" then "" else Printf.sprintf {|,"trace":"%s"|} (escape trace)
  in
  match ev with
  | Span_begin { name; ts; depth; dom; trace } ->
    Printf.sprintf {|{"ph":"B","name":"%s","ts":%.9f,"depth":%d,"dom":%d%s}|}
      (escape name) ts depth dom (trace_field trace)
  | Span_end { name; ts; dur_s; depth; dom; trace } ->
    Printf.sprintf
      {|{"ph":"E","name":"%s","ts":%.9f,"dur_s":%.9f,"depth":%d,"dom":%d%s}|}
      (escape name) ts dur_s depth dom (trace_field trace)
  | Counter_add { name; delta; ts } ->
    Printf.sprintf {|{"ph":"C","name":"%s","ts":%.9f,"delta":%d}|}
      (escape name) ts delta
  | Gauge_set { name; value; ts } ->
    Printf.sprintf {|{"ph":"G","name":"%s","ts":%.9f,"value":%.9g}|}
      (escape name) ts value
  | Hist_record { name; value; ts } ->
    Printf.sprintf {|{"ph":"H","name":"%s","ts":%.9f,"value":%.9g}|}
      (escape name) ts value
  | Gc_sample
      {
        name;
        minor_words;
        major_words;
        minor_collections;
        major_collections;
        top_heap_words;
        ts;
      } ->
    Printf.sprintf
      {|{"ph":"M","name":"%s","ts":%.9f,"minor_words":%.1f,"major_words":%.1f,"minor_collections":%d,"major_collections":%d,"top_heap_words":%d}|}
      (escape name) ts minor_words major_words minor_collections
      major_collections top_heap_words
