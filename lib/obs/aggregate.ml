(* In-memory aggregating sink: per-span-name duration statistics
   (count/total/max and p50/p90/p99, all from Span_end.dur_s), per-span
   GC deltas, counter totals and last gauge values, rendered as a text
   report (Fbb_util.Texttab) or machine-readable CSV. Columns with
   nothing to show (a span with no GC events) render as "-".

   The percentile histograms are private to the aggregate rather than
   read from the Histogram registry: an aggregate covers one window (a
   bench session, one --profile run, one replayed trace) while the
   registry accumulates over the whole process. Hist_record events -
   which traces recorded before span closes stopped emitting them
   carry, one per Span_end with the same value - are ignored, so an old
   trace replays to the same report without double counting. *)

type stat = {
  mutable count : int;
  mutable total_s : float;
  mutable max_s : float;
  hist : Histogram.t;
}

type t = {
  spans : (string, stat) Hashtbl.t;
  mutable span_order : string list;  (* first-completion order, reversed *)
  gc : (string, Gcprof.sample ref) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;
  gauges : (string, float ref) Hashtbl.t;
  mutable gauge_order : string list;
}

let create () =
  {
    spans = Hashtbl.create 32;
    span_order = [];
    gc = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    counter_order = [];
    gauges = Hashtbl.create 8;
    gauge_order = [];
  }

let sink t =
  {
    Sink.emit =
      (fun ev ->
        match ev with
        | Event.Span_begin _ -> ()
        | Event.Span_end { name; dur_s; _ } ->
          let s =
            match Hashtbl.find_opt t.spans name with
            | Some s -> s
            | None ->
              let s =
                { count = 0; total_s = 0.0; max_s = 0.0;
                  hist = Histogram.create name }
              in
              Hashtbl.add t.spans name s;
              t.span_order <- name :: t.span_order;
              s
          in
          s.count <- s.count + 1;
          s.total_s <- s.total_s +. dur_s;
          if dur_s > s.max_s then s.max_s <- dur_s;
          Histogram.observe s.hist dur_s
        | Event.Hist_record _ -> ()
        | Event.Gc_sample
            {
              name;
              minor_words;
              major_words;
              minor_collections;
              major_collections;
              top_heap_words;
              _;
            } -> begin
          let add (g : Gcprof.sample) =
            {
              Gcprof.minor_words = g.Gcprof.minor_words +. minor_words;
              major_words = g.Gcprof.major_words +. major_words;
              minor_collections = g.Gcprof.minor_collections + minor_collections;
              major_collections = g.Gcprof.major_collections + major_collections;
              top_heap_words = max g.Gcprof.top_heap_words top_heap_words;
            }
          in
          match Hashtbl.find_opt t.gc name with
          | Some r -> r := add !r
          | None ->
            Hashtbl.add t.gc name
              (ref
                 {
                   Gcprof.minor_words;
                   major_words;
                   minor_collections;
                   major_collections;
                   top_heap_words;
                 })
        end
        | Event.Counter_add { name; delta; _ } ->
          let r =
            match Hashtbl.find_opt t.counters name with
            | Some r -> r
            | None ->
              let r = ref 0 in
              Hashtbl.add t.counters name r;
              t.counter_order <- name :: t.counter_order;
              r
          in
          r := !r + delta
        | Event.Gauge_set { name; value; _ } -> begin
          match Hashtbl.find_opt t.gauges name with
          | Some r -> r := value
          | None ->
            Hashtbl.add t.gauges name (ref value);
            t.gauge_order <- name :: t.gauge_order
        end);
    flush = ignore;
  }

let span_stat t name =
  Option.map
    (fun s -> (s.count, s.total_s, s.max_s))
    (Hashtbl.find_opt t.spans name)

let counter_total t name =
  Option.map ( ! ) (Hashtbl.find_opt t.counters name)

let span_percentiles t name =
  Option.map
    (fun s ->
      let p q = Histogram.percentile s.hist q in
      (p 0.50, p 0.90, p 0.99))
    (Hashtbl.find_opt t.spans name)

let gc_stat t name = Option.map ( ! ) (Hashtbl.find_opt t.gc name)

(* Span rows, heaviest first: (name, count, total_s, mean_s, max_s). *)
let span_rows t =
  List.rev t.span_order
  |> List.map (fun name ->
         let s = Hashtbl.find t.spans name in
         (name, s.count, s.total_s, s.total_s /. float_of_int s.count, s.max_s))
  |> List.stable_sort (fun (_, _, a, _, _) (_, _, b, _, _) -> compare b a)

let counter_rows t =
  List.rev t.counter_order
  |> List.map (fun name -> (name, !(Hashtbl.find t.counters name)))

let gauge_rows t =
  List.rev t.gauge_order
  |> List.map (fun name -> (name, !(Hashtbl.find t.gauges name)))

let gc_rows t =
  List.rev t.span_order
  |> List.filter_map (fun name ->
         Option.map (fun r -> (name, !r)) (Hashtbl.find_opt t.gc name))

(* Percentile / GC lookups as floats, NaN when absent so Texttab's "-"
   rendering for non-finite cells applies. *)
let pctls_or_nan t name =
  match span_percentiles t name with
  | Some v -> v
  | None -> (Float.nan, Float.nan, Float.nan)

let gc_words_or_nan t name =
  match gc_stat t name with
  | Some g -> (g.Gcprof.minor_words, g.Gcprof.major_words)
  | None -> (Float.nan, Float.nan)

let report t =
  let module T = Fbb_util.Texttab in
  let buf = Buffer.create 1024 in
  let spans = span_rows t in
  if spans <> [] then begin
    let tab =
      T.create
        ~headers:
          [
            "span"; "count"; "total s"; "mean s"; "p50 s"; "p90 s"; "p99 s";
            "max s"; "gc minor w"; "gc major w";
          ]
    in
    List.iter
      (fun (name, count, total, mean, mx) ->
        let p50, p90, p99 = pctls_or_nan t name in
        let minor_w, major_w = gc_words_or_nan t name in
        T.add_row tab
          [
            name;
            T.cell_i count;
            T.cell_f ~digits:4 total;
            T.cell_f ~digits:6 mean;
            T.cell_f ~digits:6 p50;
            T.cell_f ~digits:6 p90;
            T.cell_f ~digits:6 p99;
            T.cell_f ~digits:6 mx;
            T.cell_f ~digits:0 minor_w;
            T.cell_f ~digits:0 major_w;
          ])
      spans;
    Buffer.add_string buf (T.render tab)
  end;
  let counters = counter_rows t in
  if counters <> [] then begin
    let tab = T.create ~headers:[ "counter"; "total" ] in
    List.iter
      (fun (name, v) -> T.add_row tab [ name; T.cell_i v ])
      counters;
    Buffer.add_string buf (T.render tab)
  end;
  let gauges = gauge_rows t in
  if gauges <> [] then begin
    let tab = T.create ~headers:[ "gauge"; "value" ] in
    List.iter
      (fun (name, v) -> T.add_row tab [ name; T.cell_f ~digits:4 v ])
      gauges;
    Buffer.add_string buf (T.render tab)
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no events recorded)\n";
  Buffer.contents buf

let to_csv t =
  let csv =
    Fbb_util.Csv.create
      ~headers:
        [
          "kind"; "name"; "count"; "total_s"; "mean_s"; "p50_s"; "p90_s";
          "p99_s"; "max_s"; "gc_minor_words"; "gc_major_words";
        ]
  in
  let cell v = if Float.is_finite v then Printf.sprintf "%.9f" v else "-" in
  let cell_w v = if Float.is_finite v then Printf.sprintf "%.0f" v else "-" in
  List.iter
    (fun (name, count, total, mean, mx) ->
      let p50, p90, p99 = pctls_or_nan t name in
      let minor_w, major_w = gc_words_or_nan t name in
      Fbb_util.Csv.add_row csv
        [
          "span"; name; string_of_int count; cell total; cell mean; cell p50;
          cell p90; cell p99; cell mx; cell_w minor_w; cell_w major_w;
        ])
    (span_rows t);
  List.iter
    (fun (name, v) ->
      Fbb_util.Csv.add_row csv
        [ "counter"; name; "1"; string_of_int v; ""; ""; ""; ""; ""; ""; "" ])
    (counter_rows t);
  List.iter
    (fun (name, v) ->
      Fbb_util.Csv.add_row csv
        [
          "gauge"; name; "1"; Printf.sprintf "%.9g" v; ""; ""; ""; ""; ""; "";
          "";
        ])
    (gauge_rows t);
  csv
