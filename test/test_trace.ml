(* Tests for the offline trace converters (Fbb_obs.Trace_export), the
   minimal JSON codec they ride on (Fbb_util.Json) and the bench-record
   comparison (Fbb_obs.Benchfile). *)

module Obs = Fbb_obs
module Json = Fbb_util.Json

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ----- Json codec ------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\n\t string");
        ("i", Json.Num 42.0);
        ("f", Json.Num 0.609842027);
        ("neg", Json.Num (-1.5e-7));
        ("b", Json.Bool true);
        ("nil", Json.Null);
        ("arr", Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let roundtrip indent =
    match Json.parse (Json.to_string ~indent v) with
    | Json.Obj _ as v' -> Alcotest.(check bool) "round-trips" true (v = v')
    | _ -> Alcotest.fail "round-trip lost the object"
  in
  roundtrip false;
  roundtrip true

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (Json.parse_opt s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\":1}x"; "nul"; "\"open" ]

let test_json_nonfinite_becomes_null () =
  (* NaN/inf have no JSON representation; the writer must emit null,
     never a token the parser cannot read back. *)
  let s = Json.to_string (Json.Obj [ ("x", Json.Num Float.nan) ]) in
  match Json.parse s with
  | v -> Alcotest.(check bool) "nan serialized as null" true
           (Json.member "x" v = Some Json.Null)
  | exception Json.Parse_error _ ->
    Alcotest.failf "writer emitted unparseable text: %s" s

(* ----- trace recording + conversion ------------------------------------- *)

(* Record a real two-domain-free trace through the Jsonl sink. *)
let record_trace () =
  let path = Filename.temp_file "fbb_trace" ".jsonl" in
  let c = Obs.Counter.make "t.trace.work" in
  let writer = Obs.Jsonl.create path in
  Obs.Sink.with_installed (Obs.Jsonl.sink writer) (fun () ->
      Obs.Span.with_ ~name:"root" (fun () ->
          Obs.Span.with_ ~name:"child" (fun () -> Obs.Counter.add c 5);
          Obs.Span.with_ ~name:"child" (fun () -> Obs.Counter.add c 2)));
  Obs.Jsonl.close writer;
  path

let test_trace_load () =
  let path = record_trace () in
  let events = Obs.Trace_export.load path in
  Sys.remove path;
  let begins =
    List.length
      (List.filter
         (function Obs.Event.Span_begin _ -> true | _ -> false)
         events)
  in
  let ends =
    List.length
      (List.filter
         (function Obs.Event.Span_end _ -> true | _ -> false)
         events)
  in
  Alcotest.(check (pair int int)) "three spans round-trip" (3, 3)
    (begins, ends);
  Alcotest.(check bool) "counter deltas round-trip" true
    (List.exists
       (function
         | Obs.Event.Counter_add { name = "t.trace.work"; delta; _ } ->
           delta = 5 || delta = 2
         | _ -> false)
       events)

let test_parse_line_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "garbage" true
    (is_err (Obs.Trace_export.parse_line "not json"));
  Alcotest.(check bool) "missing ph" true
    (is_err (Obs.Trace_export.parse_line "{\"name\":\"x\"}"));
  Alcotest.(check bool) "unknown phase" true
    (is_err (Obs.Trace_export.parse_line "{\"ph\":\"Z\",\"name\":\"x\"}"));
  (* Old traces have no dom/depth: still parse, defaulting to 0. *)
  match
    Obs.Trace_export.parse_line "{\"ph\":\"B\",\"name\":\"x\",\"ts\":1.5}"
  with
  | Ok (Obs.Event.Span_begin { name = "x"; depth = 0; dom = 0; trace = ""; ts })
    ->
    Alcotest.(check (float 0.0)) "ts kept" 1.5 ts
  | _ -> Alcotest.fail "pre-dom trace line did not parse"

let test_chrome_output_is_valid_json () =
  let path = record_trace () in
  let events = Obs.Trace_export.load path in
  Sys.remove path;
  let doc = Json.to_string (Obs.Trace_export.to_chrome events) in
  (* The acceptance bar: the converted document must be valid JSON in
     trace_event shape - an object with a traceEvents array whose every
     element carries name/ph/ts/pid/tid. *)
  let v =
    match Json.parse_opt doc with
    | Some v -> v
    | None -> Alcotest.failf "chrome output is not valid JSON: %s" doc
  in
  match Json.member_arr "traceEvents" v with
  | None -> Alcotest.fail "no traceEvents array"
  | Some items ->
    Alcotest.(check bool) "at least the six span events" true
      (List.length items >= 6);
    List.iter
      (fun item ->
        let has k = Json.member k item <> None in
        Alcotest.(check bool) "name/ph/ts/pid/tid present" true
          (has "name" && has "ph" && has "ts" && has "pid" && has "tid"))
      items

let test_chrome_integrates_counters () =
  let events =
    [
      Obs.Event.Counter_add { name = "c"; delta = 3; ts = 0.0 };
      Obs.Event.Counter_add { name = "c"; delta = 4; ts = 1.0 };
    ]
  in
  let v = Obs.Trace_export.to_chrome events in
  let values =
    match Json.member_arr "traceEvents" v with
    | Some items ->
      List.filter_map
        (fun item ->
          Option.bind (Json.member "args" item) (Json.member_num "value"))
        items
    | None -> []
  in
  Alcotest.(check bool) "deltas integrated to running totals" true
    (values = [ 3.0; 7.0 ])

let span_events =
  (* outer [0,1.0] containing child [0.1,0.5]: self times 0.6 / 0.4. *)
  [
    Obs.Event.Span_begin
      { name = "outer"; ts = 0.0; depth = 0; dom = 0; trace = "" };
    Obs.Event.Span_begin
      { name = "child"; ts = 0.1; depth = 1; dom = 0; trace = "" };
    Obs.Event.Span_end
      { name = "child"; ts = 0.5; dur_s = 0.4; depth = 1; dom = 0; trace = "" };
    Obs.Event.Span_end
      { name = "outer"; ts = 1.0; dur_s = 1.0; depth = 0; dom = 0; trace = "" };
  ]

let test_folded_self_times () =
  let folded = Obs.Trace_export.to_folded span_events in
  Alcotest.(check int) "two stacks" 2 (List.length folded);
  let self stack =
    match List.assoc_opt stack folded with
    | Some s -> s
    | None -> Alcotest.failf "missing stack %s" stack
  in
  Alcotest.(check (float 1e-9)) "parent self excludes child" 0.6
    (self "outer");
  Alcotest.(check (float 1e-9)) "child self" 0.4 (self "outer;child");
  Alcotest.(check string) "rendered as integer microseconds"
    "outer 600000\nouter;child 400000\n"
    (Obs.Trace_export.folded_to_string folded)

let test_folded_drops_unclosed () =
  let truncated =
    [
      Obs.Event.Span_begin
        { name = "outer"; ts = 0.0; depth = 0; dom = 0; trace = "" };
      Obs.Event.Span_begin
        { name = "child"; ts = 0.1; depth = 1; dom = 0; trace = "" };
      Obs.Event.Span_end
        {
          name = "child"; ts = 0.5; dur_s = 0.4; depth = 1; dom = 0;
          trace = "";
        };
      (* outer never ends: trace cut short *)
    ]
  in
  Alcotest.(check bool) "only the closed span appears" true
    (Obs.Trace_export.to_folded truncated = [ ("outer;child", 0.4) ])

let test_stats_balance () =
  let ok = Obs.Trace_export.stats span_events in
  Alcotest.(check bool) "balanced trace reported balanced" true
    (contains ~needle:"span stream balanced" ok);
  let bad =
    Obs.Trace_export.stats
      [
        Obs.Event.Span_begin
          { name = "x"; ts = 0.0; depth = 0; dom = 0; trace = "" };
      ]
  in
  Alcotest.(check bool) "truncated trace reported unbalanced" true
    (contains ~needle:"never closed" bad)

let test_trace_truncated_final_line_salvaged () =
  let path = record_trace () in
  let intact = Obs.Trace_export.load path in
  (* Simulate a writer killed mid-append: a half-written final line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"ph\":\"C\",\"na";
  close_out oc;
  let told = ref None in
  let events =
    Obs.Trace_export.load ~on_truncated:(fun m -> told := Some m) path
  in
  Sys.remove path;
  Alcotest.(check bool) "intact prefix salvaged" true (events = intact);
  match !told with
  | Some m ->
    Alcotest.(check bool) "loss reported" true (contains ~needle:"truncated" m)
  | None -> Alcotest.fail "on_truncated was not called"

let test_trace_midfile_corruption_still_fails () =
  (* A malformed line with valid lines after it is real corruption, not
     a truncated tail - the lenient path must not forgive it. *)
  let path = Filename.temp_file "fbb_trace" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"ph\":\"B\",\"name\":\"x\",\"ts\":0}\n";
  output_string oc "garbage\n";
  output_string oc "{\"ph\":\"E\",\"name\":\"x\",\"ts\":1,\"dur_s\":1}\n";
  close_out oc;
  (match Obs.Trace_export.load path with
  | _ -> Alcotest.fail "mid-file corruption must fail"
  | exception Failure m ->
    Alcotest.(check bool) "error names the line" true (contains ~needle:":2:" m));
  Sys.remove path

(* ----- trace ids -------------------------------------------------------- *)

let test_trace_id_roundtrip () =
  (* A span recorded inside a Context carries its trace id through the
     JSONL writer and back; untraced events keep the exact pre-trace
     wire format (no "trace" key at all). *)
  let path = Filename.temp_file "fbb_trace" ".jsonl" in
  let writer = Obs.Jsonl.create path in
  let ctx = Obs.Context.make ~trace:"t-test-1" () in
  Obs.Sink.with_installed (Obs.Jsonl.sink writer) (fun () ->
      Obs.Context.with_ ctx (fun () ->
          Obs.Span.with_ ~name:"traced" (fun () -> ()));
      Obs.Span.with_ ~name:"untraced" (fun () -> ()));
  Obs.Jsonl.close writer;
  let events = Obs.Trace_export.load path in
  let raw = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let trace_of name =
    List.find_map
      (function
        | Obs.Event.Span_begin { name = n; trace; _ } when n = name ->
          Some trace
        | _ -> None)
      events
  in
  Alcotest.(check (option string)) "traced span kept its id"
    (Some "t-test-1") (trace_of "traced");
  Alcotest.(check (option string)) "untraced span has empty id" (Some "")
    (trace_of "untraced");
  List.iter
    (fun line ->
      if contains ~needle:"untraced" line then
        Alcotest.(check bool) "untraced line has no trace key" false
          (contains ~needle:"\"trace\"" line))
    (String.split_on_char '\n' raw)

let test_filter_trace () =
  let span ?(trace = "") name =
    Obs.Event.Span_begin { name; ts = 0.0; depth = 0; dom = 0; trace }
  in
  let events =
    [
      span ~trace:"a" "x";
      span ~trace:"b" "y";
      span "z";
      Obs.Event.Counter_add { name = "c"; delta = 1; ts = 0.0 };
      Obs.Event.Span_end
        { name = "x"; ts = 1.0; dur_s = 1.0; depth = 0; dom = 0; trace = "a" };
    ]
  in
  let names evs =
    List.filter_map
      (function
        | Obs.Event.Span_begin { name; _ } -> Some ("B" ^ name)
        | Obs.Event.Span_end { name; _ } -> Some ("E" ^ name)
        | _ -> Some "other")
      evs
  in
  Alcotest.(check (list string)) "only trace a survives" [ "Bx"; "Ex" ]
    (names (Obs.Trace_export.filter_trace ~trace:"a" events));
  Alcotest.(check (list string)) "unknown trace filters everything" []
    (names (Obs.Trace_export.filter_trace ~trace:"nope" events))

(* ----- bench records ----------------------------------------------------- *)

let gc0 =
  {
    Obs.Gcprof.minor_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    top_heap_words = 0;
  }

let bench ?(gc = gc0) experiments counters =
  {
    Obs.Benchfile.jobs = 2;
    experiments;
    counters;
    spans = [];
    gc;
    pool = [];
  }

let test_benchfile_roundtrip () =
  let t =
    bench
      ~gc:
        {
          Obs.Gcprof.minor_words = 7.5e7;
          major_words = 5.1e6;
          minor_collections = 283;
          major_collections = 29;
          top_heap_words = 1_284_685;
        }
      [ ("yield", 0.61); ("table1", 12.5) ]
      [ ("mc.samples", 30) ]
  in
  (match Obs.Benchfile.of_json (Obs.Benchfile.to_json t) with
  | Ok t' -> Alcotest.(check bool) "record round-trips" true (t = t')
  | Error m -> Alcotest.failf "round-trip failed: %s" m);
  (* Records written by harness runs with live telemetry carry a
     "gauges" section; it is ignored, not an error. *)
  let with_gauges =
    match Obs.Benchfile.to_json t with
    | Fbb_util.Json.Obj members ->
      Fbb_util.Json.Obj
        (members
        @ [
            ( "gauges",
              Fbb_util.Json.Obj
                [ ("obs.telemetry.overhead_pct", Fbb_util.Json.Num 0.8) ] );
          ])
    | _ -> Alcotest.fail "record is not a JSON object"
  in
  match Obs.Benchfile.of_json with_gauges with
  | Ok t' -> Alcotest.(check bool) "record with gauges loads" true (t = t')
  | Error m -> Alcotest.failf "gauges record failed to load: %s" m

let compare_codes ~old_exp ~new_exp =
  let c =
    Obs.Benchfile.compare ~max_regress_pct:25.0 (bench old_exp [])
      (bench new_exp [])
  in
  (* The exit-code contract of `fbbopt bench-compare`: 2 on missing
     keys, 1 on regression, 0 otherwise. *)
  if c.Obs.Benchfile.missing <> [] then 2
  else if Obs.Benchfile.regressed c then 1
  else 0

let test_compare_ok_and_improve () =
  Alcotest.(check int) "identical -> 0" 0
    (compare_codes ~old_exp:[ ("yield", 1.0) ] ~new_exp:[ ("yield", 1.0) ]);
  Alcotest.(check int) "improvement -> 0" 0
    (compare_codes ~old_exp:[ ("yield", 1.0) ] ~new_exp:[ ("yield", 0.5) ]);
  Alcotest.(check int) "within threshold -> 0" 0
    (compare_codes ~old_exp:[ ("yield", 1.0) ] ~new_exp:[ ("yield", 1.2) ])

let test_compare_regression () =
  Alcotest.(check int) "2x slower -> 1" 1
    (compare_codes ~old_exp:[ ("yield", 1.0) ] ~new_exp:[ ("yield", 2.0) ]);
  (* Relative blow-up below the absolute floor is noise, not a
     regression: 1ms -> 2ms is +100% but only +1ms. *)
  Alcotest.(check int) "sub-floor jitter -> 0" 0
    (compare_codes ~old_exp:[ ("yield", 0.001) ] ~new_exp:[ ("yield", 0.002) ])

let test_compare_missing_key () =
  Alcotest.(check int) "missing experiment -> 2" 2
    (compare_codes
       ~old_exp:[ ("yield", 1.0); ("gone", 2.0) ]
       ~new_exp:[ ("yield", 1.0) ]);
  (* Extra experiments in the fresh record are fine. *)
  Alcotest.(check int) "extra experiment -> 0" 0
    (compare_codes ~old_exp:[ ("yield", 1.0) ]
       ~new_exp:[ ("yield", 1.0); ("new", 9.0) ])

let test_compare_gc_gate () =
  let gc words =
    { gc0 with Obs.Gcprof.minor_words = words; major_words = 1e6 }
  in
  let cmp old_w new_w =
    Obs.Benchfile.compare ~max_regress_pct:25.0
      (bench ~gc:(gc old_w) [] [])
      (bench ~gc:(gc new_w) [] [])
  in
  Alcotest.(check bool) "2x allocation regresses" true
    (Obs.Benchfile.regressed (cmp 1e8 2e8));
  Alcotest.(check bool) "equal allocation passes" false
    (Obs.Benchfile.regressed (cmp 1e8 1e8));
  (* fbb-bench-1 records carry zero GC totals; the gate must skip, not
     read them as infinite regressions. *)
  Alcotest.(check bool) "zero-gc baseline skips the gate" false
    (Obs.Benchfile.regressed
       (Obs.Benchfile.compare ~max_regress_pct:25.0 (bench [] [])
          (bench ~gc:(gc 1e8) [] [])))

let test_compare_work_gate () =
  let cmp old_c new_c =
    Obs.Benchfile.compare ~max_regress_pct:25.0 (bench [] old_c)
      (bench [] new_c)
  in
  Alcotest.(check bool) "one more pivot regresses" true
    (Obs.Benchfile.regressed
       (cmp [ ("lp.pivots", 1000) ] [ ("lp.pivots", 1001) ]));
  Alcotest.(check bool) "fewer pivots pass" false
    (Obs.Benchfile.regressed
       (cmp [ ("lp.pivots", 1000) ] [ ("lp.pivots", 400) ]));
  Alcotest.(check bool) "informational counters never gate" false
    (Obs.Benchfile.regressed
       (cmp [ ("lp.solves", 10) ] [ ("lp.solves", 1000) ]));
  Alcotest.(check (list string)) "a vanished work counter is missing"
    [ "counter:bb.nodes" ]
    (cmp [ ("bb.nodes", 5) ] []).Obs.Benchfile.missing

let test_benchfile_load_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  let tmp content =
    let path = Filename.temp_file "fbb_bench" ".json" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    let r = Obs.Benchfile.load path in
    Sys.remove path;
    r
  in
  Alcotest.(check bool) "parse error -> Error" true (is_err (tmp "{oops"));
  Alcotest.(check bool) "wrong schema -> Error" true
    (is_err (tmp "{\"schema\":\"nope\"}"));
  Alcotest.(check bool) "missing file -> Error" true
    (is_err (Obs.Benchfile.load "/nonexistent/bench.json"))

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json rejects garbage", `Quick, test_json_rejects_garbage);
    ("json non-finite becomes null", `Quick, test_json_nonfinite_becomes_null);
    ("trace load round-trip", `Quick, test_trace_load);
    ("trace parse_line errors", `Quick, test_parse_line_errors);
    ("chrome output is valid trace_event JSON", `Quick,
     test_chrome_output_is_valid_json);
    ("chrome integrates counter deltas", `Quick,
     test_chrome_integrates_counters);
    ("folded self times", `Quick, test_folded_self_times);
    ("folded drops unclosed spans", `Quick, test_folded_drops_unclosed);
    ("stats balance check", `Quick, test_stats_balance);
    ("truncated final line salvaged", `Quick,
     test_trace_truncated_final_line_salvaged);
    ("mid-file corruption still fails", `Quick,
     test_trace_midfile_corruption_still_fails);
    ("trace id round-trip", `Quick, test_trace_id_roundtrip);
    ("filter by trace id", `Quick, test_filter_trace);
    ("benchfile round-trip", `Quick, test_benchfile_roundtrip);
    ("bench-compare ok/improve", `Quick, test_compare_ok_and_improve);
    ("bench-compare regression", `Quick, test_compare_regression);
    ("bench-compare missing key", `Quick, test_compare_missing_key);
    ("bench-compare gc gate", `Quick, test_compare_gc_gate);
    ("bench-compare work gate", `Quick, test_compare_work_gate);
    ("benchfile load errors", `Quick, test_benchfile_load_errors);
  ]
