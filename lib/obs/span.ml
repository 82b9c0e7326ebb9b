(* Hierarchical timed spans. [with_ ~name f] is the only primitive: it
   nests, it is exception-safe (the end event is emitted even when [f]
   raises, so traces stay balanced), and with no sink installed it is a
   single atomic load and a tail call - the hot path pays nothing.

   Each domain keeps its own nesting depth in domain-local storage, so
   spans opened inside pool workers nest correctly against their own
   ancestry instead of racing over one global stack; every span event
   carries its domain id, so the per-domain stacks can be rebuilt from
   the shared stream that [Sink.emit] serializes at span boundaries.

   Beyond the begin/end pair, closing a span (with a sink installed)
   also observes its duration into the registry histogram of the same
   name (no event: [Span_end.dur_s] already carries the duration, so
   /metrics gets p50/p90/p99 per span name without a second record on
   the wire) and, unless [Gcprof.set_enabled false], emits a
   [Gc_sample] with the GC-counter deltas across the span on this
   domain. *)

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let current_depth () = !(Domain.DLS.get depth_key)

let with_ ~name f =
  match Sink.installed () with
  | None -> f ()
  | Some _ ->
    (* Attribute increments made outside this span to its parent. *)
    Counter.flush_pending ();
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let dom = (Domain.self () :> int) in
    (* The trace id travels in the domain-local Context (re-established
       on workers by Pool), so spans from parallel sections attach to
       the request that spawned them. *)
    let trace = Context.trace_id () in
    Context.push_span name;
    let gc0 = if Gcprof.enabled () then Some (Gcprof.sample ()) else None in
    let t0 = Clock.now_s () in
    Sink.emit (Event.Span_begin { name; ts = t0; depth = d; dom; trace });
    let finish () =
      Counter.flush_pending ();
      let t1 = Clock.now_s () in
      depth := d;
      Context.pop_span ();
      let dur_s = t1 -. t0 in
      Sink.emit (Event.Span_end { name; ts = t1; dur_s; depth = d; dom; trace });
      Histogram.observe (Histogram.make name) dur_s;
      Option.iter (Gcprof.emit_span_delta ~name ~ts:t1) gc0
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)
