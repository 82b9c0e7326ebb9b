(* Per-layer attribution from the spans and counters the program
   already records. A traced run installs the existing aggregate sink
   teed with [capture], which keeps span and GC events in memory; after
   the run, span self time (duration minus the same-domain children it
   covers) is summed per layer by span-name prefix. *)

module E = Fbb_obs.Event

(* Span name -> layer. Order matters: the first matching prefix wins. *)
let layer_of_span name =
  let starts p = String.starts_with ~prefix:p name in
  if starts "perfbench." then "unattributed"
  else if name = "flow.generate" then "place.generate"
  else if name = "flow.place" then "place.place"
  else if starts "sta." then "sta"
  else if starts "problem." then "problem"
  else if starts "heuristic." || starts "refine." || starts "tuning."
          || starts "mc." then "heuristic"
    (* The LP runs inside [bb.lp_bound]; lib/lp opens no span itself. *)
  else if name = "bb.lp_bound" then "lp"
  else if starts "bb." then "bb"
  else if starts "ilp." then "ilp"
  else if starts "cascade." then "cascade"
  else if starts "serve." then "serve"
  else "other"

type capture = {
  mutable events : E.t list;  (* span events, newest first *)
  mutable gc_minor_words : float;  (* summed over domain-root spans *)
  last_end_depth : (int, int) Hashtbl.t;  (* domain -> depth of last end *)
}

let create () =
  { events = []; gc_minor_words = 0.0; last_end_depth = Hashtbl.create 8 }

(* Sink emits are serialized by [Sink] and run on the emitting domain,
   so a [Gc_sample] can be matched to the [Span_end] its domain emitted
   just before it. Only spans at depth 0 on their domain count, so
   nested spans are not double-counted. *)
let sink c =
  let emit (ev : E.t) =
    match ev with
    | E.Span_begin _ -> c.events <- ev :: c.events
    | E.Span_end { depth; _ } ->
      Hashtbl.replace c.last_end_depth (Domain.self () :> int) depth;
      c.events <- ev :: c.events
    | E.Gc_sample { minor_words; _ } -> (
      match Hashtbl.find_opt c.last_end_depth (Domain.self () :> int) with
      | Some 0 -> c.gc_minor_words <- c.gc_minor_words +. minor_words
      | Some _ | None -> ())
    | E.Counter_add _ | E.Gauge_set _ | E.Hist_record _ -> ()
  in
  { Fbb_obs.Sink.emit; flush = ignore }

(* Self seconds per layer from the captured stream, as a lookup. *)
let self_times c =
  let events = List.rev c.events in
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun (stack, self_s) ->
      let leaf =
        match String.rindex_opt stack ';' with
        | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
        | None -> stack
      in
      let l = layer_of_span leaf in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_layer l) in
      Hashtbl.replace per_layer l (prev +. self_s))
    (Fbb_obs.Trace_export.to_folded events);
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt per_layer layer)

(* Same computation over a flight-record span tree (fbbd's /request/<id>.json). *)
let add_flight_spans tbl spans =
  let module J = Fbb_util.Json in
  let rec walk sp =
    let name = Option.value ~default:"" (J.member_str "name" sp) in
    let dur = Option.value ~default:0.0 (J.member_num "dur_s" sp) in
    let dom = J.member_num "dom" sp in
    let children = Option.value ~default:[] (J.member_arr "spans" sp) in
    let covered =
      List.fold_left
        (fun acc ch ->
          if J.member_num "dom" ch = dom then
            acc +. Option.value ~default:0.0 (J.member_num "dur_s" ch)
          else acc)
        0.0 children
    in
    let l = layer_of_span name in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (prev +. Float.max 0.0 (dur -. covered));
    List.iter walk children
  in
  List.iter walk spans

(* ----- the per-layer metric set ------------------------------------------ *)

(* Every per-layer metric, with its unit. A traced run of any workload
   reports all of them; a layer the workload does not reach reads 0. *)
let table =
  [
    ("place.generate_s", "s"); ("place.place_s", "s");
    ("sta.self_s", "s"); ("sta.nodes_repropagated", "count");
    ("sta.incr_updates", "count"); ("sta.cache_hits", "count");
    ("problem.build_s", "s"); ("problem.paths", "count");
    ("heuristic.self_s", "s"); ("heuristic.moves", "count");
    ("refine.iterations", "count"); ("mc.die_ms", "ms");
    ("lp.self_s", "s"); ("lp.solves", "count"); ("lp.pivots", "count");
    ("lp.phase1_share", "ratio"); ("lp.pivots_per_solve", "count");
    ("bb.self_s", "s"); ("bb.nodes", "count"); ("bb.prune_ratio", "ratio");
    ("bb.waves", "count"); ("bb.lp_infeasible", "count");
    ("ilp.self_s", "s"); ("ilp.subsets_considered", "count");
    ("ilp.subset_prune_ratio", "ratio");
    ("cascade.self_s", "s"); ("cascade.ilp_accept_share", "ratio");
    ("serve.self_s", "s"); ("serve.queue_p50_ms", "ms");
    ("serve.queue_p90_ms", "ms"); ("serve.batch_mean", "count");
    ("serve.prepared_hit_ratio", "ratio"); ("serve.shed", "count");
    ("par.busy_share", "ratio"); ("par.tasks", "count");
    ("obs.trace_overhead_pct", "%");
    ("gc.minor_mw", "Mword"); ("gc.major_collections", "count");
    ("gen.lag_p90_ms", "ms"); ("gen.backlog_max", "count");
    ("other.self_s", "s"); ("unattributed_s", "s");
  ]

(* Counter-derived entries, from a delta lookup over the traced window. *)
let of_counters get =
  let f n = float_of_int (get n) in
  let r = Common.ratio in
  [
    ("sta.nodes_repropagated", f "sta.nodes_repropagated");
    ("sta.incr_updates", f "sta.incr_updates");
    ("sta.cache_hits", f "sta.cache_hits");
    ("heuristic.moves", f "heuristic.moves");
    ("refine.iterations", f "refine.iterations");
    ("lp.solves", f "lp.solves"); ("lp.pivots", f "lp.pivots");
    ("lp.phase1_share", r (f "lp.phase1_pivots") (f "lp.pivots"));
    ("lp.pivots_per_solve", r (f "lp.pivots") (f "lp.solves"));
    ("bb.nodes", f "bb.nodes");
    ("bb.prune_ratio", r (f "bb.pruned") (f "bb.nodes"));
    ("bb.waves", f "bb.waves"); ("bb.lp_infeasible", f "bb.lp_infeasible");
    ("ilp.subsets_considered", f "ilp.subsets_considered");
    ( "ilp.subset_prune_ratio",
      r (f "ilp.subsets_pruned") (f "ilp.subsets_considered") );
    ("par.tasks", f "par.tasks");
  ]

(* Self-time entries from a layer -> seconds lookup. *)
let of_self self =
  [
    ("sta.self_s", self "sta"); ("heuristic.self_s", self "heuristic");
    ("lp.self_s", self "lp"); ("bb.self_s", self "bb");
    ("ilp.self_s", self "ilp"); ("cascade.self_s", self "cascade");
    ("serve.self_s", self "serve"); ("other.self_s", self "other");
    ("unattributed_s", self "unattributed");
  ]

(* The full metric list: later entries of [values] win; absent ones are 0. *)
let metrics values =
  List.map
    (fun (name, unit_) ->
      let v =
        List.fold_left
          (fun acc (n, x) -> if n = name then x else acc)
          0.0 values
      in
      Common.metric name unit_ v)
    table

(* ----- a traced in-process window ---------------------------------------- *)

type window = {
  wall_s : float;
  self_s : string -> float;
  counter : string -> int;  (* delta over the window *)
  gc_minor_mw : float;
  gc_major_collections : int;
  busy_share : float;  (* pool busy time / (wall * jobs) *)
}

let pool_busy () =
  List.fold_left
    (fun acc (_, busy, _, _) -> acc +. busy)
    0.0
    (Fbb_par.Pool.utilization ())

(* Run [f] with the aggregate sink teed with a capture sink, inside one
   root span of the benchmark's own (its self time is the time the
   window spent outside every program span). *)
let traced f =
  let agg = Fbb_obs.Aggregate.create () in
  let cap = create () in
  let before = Fbb_obs.Counter.totals () in
  let busy0 = pool_busy () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let v, wall_s =
    Fbb_obs.Sink.with_installed
      (Fbb_obs.Sink.tee (Fbb_obs.Aggregate.sink agg) (sink cap))
      (fun () ->
        Common.timed (fun () ->
            Fbb_obs.Span.with_ ~name:"perfbench.window" f))
  in
  let after = Fbb_obs.Counter.totals () in
  let jobs = float_of_int (Fbb_par.Pool.jobs ()) in
  ( v,
    {
      wall_s;
      self_s = self_times cap;
      counter = Common.counters_delta ~before ~after;
      gc_minor_mw = cap.gc_minor_words /. 1e6;
      gc_major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
      busy_share = Common.ratio (pool_busy () -. busy0) (wall_s *. jobs);
    } )

let window_values w =
  of_counters w.counter @ of_self w.self_s
  @ [
      ("gc.minor_mw", w.gc_minor_mw);
      ("gc.major_collections", float_of_int w.gc_major_collections);
      ("par.busy_share", w.busy_share);
    ]
