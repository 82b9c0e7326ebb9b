(* Machine-readable bench session records and the regression gate.

   A record extends the original flat per-experiment seconds
   ("fbb-bench-1") with per-span latency percentiles out of the
   aggregate's histograms, whole-process GC totals and domain-pool
   utilization ("fbb-bench-2"). [compare] diffs two records and is the
   CI gate: `fbbopt bench-compare baseline.json fresh.json
   --max-regress 25` fails the job when a gated metric grew beyond the
   threshold.

   Gated metrics are per-experiment wall seconds, the two GC
   allocation totals and the solver work counters in [work_counters].
   The bench's phases are bounded by work budgets, never deadlines, so
   those counters repeat exactly from run to run: they gate at zero
   tolerance, and any increase regresses. A deliberate algorithmic
   change re-records the baseline. Other counters are reported but
   informational. Wall seconds gate with both a relative threshold and
   an absolute floor, so sub-centisecond noise on a fast experiment
   cannot fail CI. *)

module Json = Fbb_util.Json

type span_stat = {
  count : int;
  total_s : float;
  mean_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  max_s : float;
}

type pool_stat = {
  label : string;
  busy_s : float;
  idle_s : float;
  tasks : int;
}

type t = {
  jobs : int;
  experiments : (string * float) list;  (* name, wall seconds *)
  counters : (string * int) list;
  spans : (string * span_stat) list;
  gc : Gcprof.sample;  (* whole-process totals at record time *)
  pool : pool_stat list;
}

let schema = "fbb-bench-2"

(* ----- construction ---------------------------------------------------- *)

let span_stats_of_aggregate agg =
  List.map
    (fun (name, count, total_s, mean_s, max_s) ->
      let p50_s, p90_s, p99_s =
        match Aggregate.span_percentiles agg name with
        | Some (a, b, c) -> (a, b, c)
        | None -> (Float.nan, Float.nan, Float.nan)
      in
      (name, { count; total_s; mean_s; p50_s; p90_s; p99_s; max_s }))
    (Aggregate.span_rows agg)

let make ~jobs ~experiments ~counters ~pool agg =
  {
    jobs;
    experiments;
    counters;
    spans = span_stats_of_aggregate agg;
    gc = Gcprof.sample ();
    pool =
      List.map
        (fun (label, busy_s, idle_s, tasks) -> { label; busy_s; idle_s; tasks })
        pool;
  }

(* ----- JSON ------------------------------------------------------------ *)

let num f = Json.Num f
let inum i = Json.Num (float_of_int i)

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("jobs", inum t.jobs);
      ( "experiments",
        Json.Arr
          (List.map
             (fun (name, seconds) ->
               Json.Obj [ ("name", Json.Str name); ("seconds", num seconds) ])
             t.experiments) );
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, inum v)) t.counters) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [
                     ("count", inum s.count);
                     ("total_s", num s.total_s);
                     ("mean_s", num s.mean_s);
                     ("p50_s", num s.p50_s);
                     ("p90_s", num s.p90_s);
                     ("p99_s", num s.p99_s);
                     ("max_s", num s.max_s);
                   ] ))
             t.spans) );
      ( "gc",
        Json.Obj
          [
            ("minor_words", num t.gc.Gcprof.minor_words);
            ("major_words", num t.gc.Gcprof.major_words);
            ("minor_collections", inum t.gc.Gcprof.minor_collections);
            ("major_collections", inum t.gc.Gcprof.major_collections);
            ("top_heap_words", inum t.gc.Gcprof.top_heap_words);
          ] );
      ( "pool",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("label", Json.Str p.label);
                   ("busy_s", num p.busy_s);
                   ("idle_s", num p.idle_s);
                   ("tasks", inum p.tasks);
                 ])
             t.pool) );
    ]

let get_num v k ~default =
  match Json.member_num k v with
  | Some f -> f
  | None -> default

let of_json v =
  match Json.member_str "schema" v with
  | Some ("fbb-bench-1" | "fbb-bench-2") ->
    let experiments =
      match Json.member_arr "experiments" v with
      | None -> []
      | Some items ->
        List.filter_map
          (fun item ->
            match (Json.member_str "name" item, Json.member_num "seconds" item)
            with
            | Some name, Some seconds -> Some (name, seconds)
            | _ -> None)
          items
    in
    let counters =
      match Json.member_obj "counters" v with
      | None -> []
      | Some members ->
        List.filter_map
          (fun (name, jv) ->
            Option.map (fun f -> (name, int_of_float f)) (Json.to_num jv))
          members
    in
    let spans =
      match Json.member_obj "spans" v with
      | None -> []
      | Some members ->
        List.map
          (fun (name, sv) ->
            ( name,
              {
                count = int_of_float (get_num sv "count" ~default:0.0);
                total_s = get_num sv "total_s" ~default:Float.nan;
                mean_s = get_num sv "mean_s" ~default:Float.nan;
                p50_s = get_num sv "p50_s" ~default:Float.nan;
                p90_s = get_num sv "p90_s" ~default:Float.nan;
                p99_s = get_num sv "p99_s" ~default:Float.nan;
                max_s = get_num sv "max_s" ~default:Float.nan;
              } ))
          members
    in
    let gc =
      match Json.member "gc" v with
      | Some gv ->
        {
          Gcprof.minor_words = get_num gv "minor_words" ~default:0.0;
          major_words = get_num gv "major_words" ~default:0.0;
          minor_collections =
            int_of_float (get_num gv "minor_collections" ~default:0.0);
          major_collections =
            int_of_float (get_num gv "major_collections" ~default:0.0);
          top_heap_words = int_of_float (get_num gv "top_heap_words" ~default:0.0);
        }
      | None ->
        {
          Gcprof.minor_words = 0.0;
          major_words = 0.0;
          minor_collections = 0;
          major_collections = 0;
          top_heap_words = 0;
        }
    in
    let pool =
      match Json.member_arr "pool" v with
      | None -> []
      | Some items ->
        List.filter_map
          (fun item ->
            Option.map
              (fun label ->
                {
                  label;
                  busy_s = get_num item "busy_s" ~default:0.0;
                  idle_s = get_num item "idle_s" ~default:0.0;
                  tasks = int_of_float (get_num item "tasks" ~default:0.0);
                })
              (Json.member_str "label" item))
          items
    in
    Ok
      {
        jobs = int_of_float (get_num v "jobs" ~default:1.0);
        experiments;
        counters;
        spans;
        gc;
        pool;
      }
  | Some s -> Error (Printf.sprintf "unknown schema %S" s)
  | None -> Error "missing \"schema\""

let save t ~path = Json.save ~indent:true (to_json t) ~path

let load path =
  match Json.load path with
  | v -> of_json v
  | exception Json.Parse_error (pos, msg) ->
    Error (Printf.sprintf "%s: JSON error at offset %d: %s" path pos msg)
  | exception Sys_error msg -> Error msg

(* ----- comparison ------------------------------------------------------ *)

type verdict = {
  key : string;
  old_v : float;
  new_v : float;
  change_pct : float;  (* +10.0 = new is 10% bigger *)
  gated : bool;
  regressed : bool;
}

type comparison = {
  verdicts : verdict list;
  missing : string list;  (* gated keys of [old] absent in [new] *)
}

(* Noise floors: a gated metric only regresses when it grew by the
   relative threshold AND by an absolute margin that matters - 50 ms
   of wall clock (shared runners routinely jitter sub-second
   experiments by tens of ms), a million words (~8 MB) of
   allocation. *)
let seconds_floor = 0.050
let words_floor = 1e6

(* Deterministic solver work, gated at zero tolerance. *)
let work_counters =
  [ "lp.pivots"; "bb.nodes"; "ilp.subsets_considered";
    "sta.nodes_repropagated"; "heuristic.moves" ]

let change_pct ~old_v ~new_v =
  if old_v = 0.0 then if new_v = 0.0 then 0.0 else Float.infinity
  else (new_v -. old_v) /. old_v *. 100.0

let verdict ~max_regress_pct ~floor ~gated key old_v new_v =
  let pct = change_pct ~old_v ~new_v in
  let regressed =
    gated && pct > max_regress_pct && new_v -. old_v > floor
  in
  { key; old_v; new_v; change_pct = pct; gated; regressed }

let compare ~max_regress_pct old_t new_t =
  let verdicts = ref [] and missing = ref [] in
  let emit v = verdicts := v :: !verdicts in
  (* experiments: gated on wall seconds *)
  List.iter
    (fun (name, old_s) ->
      let key = "exp:" ^ name in
      match List.assoc_opt name new_t.experiments with
      | Some new_s ->
        emit
          (verdict ~max_regress_pct ~floor:seconds_floor ~gated:true key old_s
             new_s)
      | None -> missing := key :: !missing)
    old_t.experiments;
  (* GC allocation totals: gated when the old record has them
     (fbb-bench-1 files carry zeros - comparing against those would
     read as infinite regression). *)
  let gc_gate =
    old_t.gc.Gcprof.minor_words > 0.0 || old_t.gc.Gcprof.major_words > 0.0
  in
  if gc_gate then begin
    emit
      (verdict ~max_regress_pct ~floor:words_floor ~gated:true
         "gc:minor_words" old_t.gc.Gcprof.minor_words
         new_t.gc.Gcprof.minor_words);
    emit
      (verdict ~max_regress_pct ~floor:words_floor ~gated:true
         "gc:major_words" old_t.gc.Gcprof.major_words
         new_t.gc.Gcprof.major_words)
  end;
  (* counters: the work counters gate on any increase; the rest are
     informational, visible in the table. *)
  List.iter
    (fun (name, old_c) ->
      let key = "counter:" ^ name in
      let gated = List.mem name work_counters in
      match List.assoc_opt name new_t.counters with
      | Some new_c ->
        emit
          (verdict
             ~max_regress_pct:(if gated then 0.0 else max_regress_pct)
             ~floor:0.0 ~gated key (float_of_int old_c) (float_of_int new_c))
      | None -> if gated then missing := key :: !missing)
    old_t.counters;
  { verdicts = List.rev !verdicts; missing = List.rev !missing }

let regressed c = List.exists (fun v -> v.regressed) c.verdicts

let render c =
  let module T = Fbb_util.Texttab in
  let tab =
    T.create ~headers:[ "metric"; "old"; "new"; "change %"; "verdict" ]
  in
  List.iter
    (fun v ->
      T.add_row tab
        [
          v.key;
          T.cell_f ~digits:3 v.old_v;
          T.cell_f ~digits:3 v.new_v;
          T.cell_f ~digits:2 v.change_pct;
          (if v.regressed then "REGRESSED"
           else if not v.gated then "info"
           else if v.change_pct < 0.0 then "improved"
           else "ok");
        ])
    c.verdicts;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (T.render tab);
  List.iter
    (fun key -> Printf.bprintf buf "MISSING in new record: %s\n" key)
    c.missing;
  Buffer.contents buf
