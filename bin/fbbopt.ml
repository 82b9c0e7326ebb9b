(* fbbopt: command-line driver for the physically clustered FBB flow.

   Subcommands:
     list          - the built-in benchmark suite
     characterize  - device/bias sweep (Figure 1 data)
     optimize      - run the clustering optimizer on a benchmark or a
                     .bench netlist and report leakage savings
     tune          - closed-loop post-silicon tuning simulation
     recover       - active leakage recovery with reverse body bias
     trace         - offline converters for recorded JSONL traces
     bench-compare - diff two bench.json records, gate on regressions
     top           - live TTY dashboard over a telemetry endpoint
     scrape        - fetch + validate a telemetry endpoint (CI smoke)

   Live telemetry is served by [fbbd serve --metrics-port]; [top] and
   [scrape] are its clients. *)

open Cmdliner

let ( let* ) r f = Result.bind r f

(* ----- shared arguments ----------------------------------------------- *)

let design_arg =
  let doc = "Built-in benchmark name (see $(b,fbbopt list))." in
  Arg.(value & opt (some string) None & info [ "d"; "design" ] ~docv:"NAME" ~doc)

let bench_file_arg =
  let doc =
    "Read the circuit from an ISCAS-style .bench file, or structural \
     Verilog when the name ends in .v."
  in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let beta_arg =
  let doc = "Slowdown coefficient in percent (the paper's beta)." in
  Arg.(value & opt float 5.0 & info [ "b"; "beta" ] ~docv:"PCT" ~doc)

let clusters_arg =
  let doc = "Cluster budget C (distinct bias levels incl. NBB)." in
  Arg.(value & opt int 2 & info [ "C"; "clusters" ] ~docv:"N" ~doc)

let rows_arg =
  let doc = "Target standard-cell row count (default: benchmark's or square)." in
  Arg.(value & opt (some int) None & info [ "rows" ] ~docv:"N" ~doc)

let ilp_arg =
  let doc = "Also run the exact ILP (warm-started from the heuristic)." in
  Arg.(value & flag & info [ "ilp" ] ~doc)

let ilp_seconds_arg =
  let doc = "ILP time budget in seconds." in
  Arg.(value & opt float 60.0 & info [ "ilp-seconds" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Width of the parallel domain pool (default: $(b,FBB_JOBS), else the \
     machine's available cores). Results are bit-identical at any width; \
     1 runs everything on the calling domain."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let set_jobs = Option.iter Fbb_par.Pool.set_jobs

let svg_arg =
  let doc = "Write the biased layout as SVG to $(docv)." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let ascii_arg =
  let doc = "Print the row/cluster map as ASCII art." in
  Arg.(value & flag & info [ "ascii" ] ~doc)

(* ----- observability ---------------------------------------------------- *)

let trace_arg =
  let doc =
    "Write a JSONL event trace (one span/counter/gauge event per line, \
     Chrome trace_event flavoured) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Print a per-stage timing report (span statistics and counter totals) \
     to stderr when the command finishes."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_csv_arg =
  let doc = "Write the per-stage timing report as CSV to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "profile-csv" ] ~docv:"FILE" ~doc)

module Obs_cli = struct
  type t = {
    aggregate : Fbb_obs.Aggregate.t option;
    jsonl : Fbb_obs.Jsonl.t option;
    profile : bool;
    profile_csv : string option;
  }

  let start ~trace ~profile ~profile_csv =
    let aggregate =
      if profile || profile_csv <> None then Some (Fbb_obs.Aggregate.create ())
      else None
    in
    let jsonl = Option.map Fbb_obs.Jsonl.create trace in
    let sinks =
      List.filter_map Fun.id
        [
          Option.map Fbb_obs.Aggregate.sink aggregate;
          Option.map Fbb_obs.Jsonl.sink jsonl;
        ]
    in
    (match sinks with
    | [] -> ()
    | s :: rest ->
      Fbb_obs.Sink.install (List.fold_left Fbb_obs.Sink.tee s rest));
    { aggregate; jsonl; profile; profile_csv }

  let finish t =
    (* Pool utilization gauges must land while the sinks are still
       installed so they reach the trace and the profile report. *)
    Fbb_par.Pool.publish_utilization ();
    Fbb_obs.Sink.clear ();
    Option.iter Fbb_obs.Jsonl.close t.jsonl;
    Option.iter
      (fun agg ->
        if t.profile then prerr_string (Fbb_obs.Aggregate.report agg);
        Option.iter
          (fun path ->
            Fbb_util.Csv.save (Fbb_obs.Aggregate.to_csv agg) ~path;
            Printf.eprintf "profile csv written to %s\n" path)
          t.profile_csv)
      t.aggregate

  (* Run [f] under the requested sinks as one traced request: a fresh
     Context (so every span, including those on pool workers, carries
     one trace id) wrapped in a top-level span so the report's first
     line accounts for (nearly) the full wall clock. *)
  let run ~span ~trace ~profile ~profile_csv f =
    let t = start ~trace ~profile ~profile_csv in
    let ctx = Fbb_obs.Context.make () in
    if trace <> None then
      Printf.eprintf "trace id: %s\n%!" ctx.Fbb_obs.Context.trace;
    Fun.protect
      ~finally:(fun () -> finish t)
      (fun () ->
        Fbb_obs.Context.with_ ctx (fun () -> Fbb_obs.Span.with_ ~name:span f))
end

(* Savings against a zero/NaN baseline print as "-", not inf/nan. *)
let pct_str v =
  if Float.is_finite v then Printf.sprintf "%.2f%%" v else "-"

let load_placement ~design ~file ~rows =
  match (design, file) with
  | Some _, Some _ -> Error "pass either --design or --file, not both"
  | None, None -> Error "pass --design NAME or --file FILE"
  | Some name, None -> begin
    match Fbb_netlist.Benchmarks.find name with
    | spec ->
      let nl = spec.Fbb_netlist.Benchmarks.generate () in
      let target_rows =
        Some (Option.value rows ~default:spec.Fbb_netlist.Benchmarks.rows)
      in
      Ok (Fbb_place.Placement.place ?target_rows nl)
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown benchmark %s (try: %s)" name
           (String.concat ", " Fbb_netlist.Benchmarks.names))
  end
  | None, Some path -> begin
    let parse =
      if Filename.check_suffix path ".v" then Fbb_netlist.Verilog_io.parse_file
      else Fbb_netlist.Bench_io.parse_file
    in
    match parse path with
    | nl -> Ok (Fbb_place.Placement.place ?target_rows:rows nl)
    | exception Fbb_netlist.Bench_io.Parse_error (line, msg)
    | exception Fbb_netlist.Verilog_io.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
  end

let report_placement pl =
  Format.printf "placed: %a@." Fbb_place.Placement.pp_summary pl

(* ----- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    let tab =
      Fbb_util.Texttab.create ~headers:[ "name"; "gates"; "rows"; "ILP in paper" ]
    in
    List.iter
      (fun (s : Fbb_netlist.Benchmarks.spec) ->
        Fbb_util.Texttab.add_row tab
          [
            s.Fbb_netlist.Benchmarks.name;
            string_of_int s.Fbb_netlist.Benchmarks.gates;
            string_of_int s.Fbb_netlist.Benchmarks.rows;
            (if s.Fbb_netlist.Benchmarks.ilp_tractable then "yes" else "no");
          ])
      Fbb_netlist.Benchmarks.all;
    Fbb_util.Texttab.print tab
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark suite")
    Term.(const run $ const ())

(* ----- characterize ----------------------------------------------------- *)

let characterize_cmd =
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Write the sweep as CSV.")
  in
  let liberty_arg =
    Arg.(value & opt (some string) None & info [ "liberty" ] ~docv:"FILE"
           ~doc:"Dump the characterized cell library in Liberty-flavoured \
                 text.")
  in
  let run csv liberty =
    let points = Fbb_tech.Characterize.figure1 () in
    let tab =
      Fbb_util.Texttab.create
        ~headers:[ "vbs (V)"; "speedup %"; "leakage x" ]
    in
    Array.iter
      (fun p ->
        Fbb_util.Texttab.add_row tab
          [
            Printf.sprintf "%.2f" p.Fbb_tech.Characterize.vbs;
            Printf.sprintf "%.2f" p.Fbb_tech.Characterize.speedup_pct;
            Printf.sprintf "%.2f" p.Fbb_tech.Characterize.leak_factor;
          ])
      points;
    Fbb_util.Texttab.print tab;
    Option.iter
      (fun path ->
        Fbb_util.Csv.save (Fbb_tech.Characterize.to_csv points) ~path;
        Printf.printf "written %s\n" path)
      csv;
    Option.iter
      (fun path ->
        Fbb_tech.Liberty.save Fbb_tech.Cell_library.default ~path;
        Printf.printf "written %s\n" path)
      liberty
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Delay/leakage vs body-bias sweep (Figure 1 data)")
    Term.(const run $ csv_arg $ liberty_arg)

(* ----- optimize --------------------------------------------------------- *)

let optimize design file beta_pct clusters rows run_ilp ilp_seconds svg ascii =
  let* pl = load_placement ~design ~file ~rows in
  report_placement pl;
  let beta = beta_pct /. 100.0 in
  let p = Fbb_core.Problem.build ~beta pl in
  Format.printf "problem: %a@." Fbb_core.Problem.pp_summary p;
  match Fbb_core.Refine.heuristic ~max_clusters:clusters p with
  | None ->
    Error
      (Printf.sprintf
         "a %.1f%% slowdown cannot be compensated: max speed-up at 0.5V is \
          %.1f%%"
         beta_pct
         (Fbb_tech.Device.speedup_pct Fbb_tech.Device.default ~vbs:0.5))
  | Some o ->
    let p = o.Fbb_core.Refine.problem in
    let jopt = Option.get (Fbb_core.Heuristic.pass_one p) in
    let single_bb_nw =
      Fbb_core.Solution.leakage_nw p (Fbb_core.Solution.uniform p jopt)
    in
    let heur_levels = o.Fbb_core.Refine.levels in
    let heur_nw = Fbb_core.Solution.leakage_nw p heur_levels in
    Printf.printf "Single BB baseline: vbs=%.2fV leakage %.3f uW\n"
      (Fbb_tech.Bias.voltage jopt)
      (single_bb_nw /. 1000.0);
    Printf.printf
      "heuristic (C=%d): leakage %.3f uW, savings %s, clusters %s \
       (signoff %s, %d refinement iteration(s))\n"
      clusters (heur_nw /. 1000.0)
      (pct_str (Fbb_util.Stats.ratio_pct single_bb_nw heur_nw))
      (String.concat "/"
         (List.map
            (fun l -> Printf.sprintf "%.2fV" (Fbb_tech.Bias.voltage l))
            (Fbb_core.Solution.clusters_used heur_levels)))
      (if o.Fbb_core.Refine.signoff_clean then "clean" else "NOT CLEAN")
      o.Fbb_core.Refine.iterations;
    let final_levels = ref heur_levels in
    if run_ilp then begin
      let config =
        {
          Fbb_core.Ilp_opt.default_config with
          max_clusters = clusters;
          limits =
            { Fbb_ilp.Branch_bound.max_nodes = 2_000_000;
              max_seconds = ilp_seconds };
        }
      in
      let r =
        Fbb_core.Ilp_opt.optimize ~config ~warm_start:heur_levels p
      in
      match (r.Fbb_core.Ilp_opt.levels, r.Fbb_core.Ilp_opt.leakage_nw) with
      | Some levels, Some leak ->
        Printf.printf
          "ILP (C=%d): leakage %.3f uW, savings %s%s (%d nodes, %.1fs)\n"
          clusters (leak /. 1000.0)
          (pct_str (Fbb_util.Stats.ratio_pct single_bb_nw leak))
          (if r.Fbb_core.Ilp_opt.proved_optimal then " [optimal]"
           else " [budget hit - best incumbent]")
          r.Fbb_core.Ilp_opt.nodes r.Fbb_core.Ilp_opt.elapsed_s;
        if r.Fbb_core.Ilp_opt.proved_optimal then final_levels := levels
      | _, _ -> Printf.printf "ILP: no solution within budget\n"
    end;
    let levels = !final_levels in
    let area = Fbb_layout.Area.of_assignment pl ~levels in
    let rails = Fbb_layout.Bias_rails.insert pl ~levels in
    Printf.printf
      "layout: %d rail pair(s), well-separation overhead %.2f%%, max row \
       utilization increase %.2f%%\n"
      rails.Fbb_layout.Bias_rails.bias_pairs area.Fbb_layout.Area.overhead_pct
      (100.0 *. rails.Fbb_layout.Bias_rails.max_utilization_increase);
    if ascii then print_string (Fbb_layout.Render.ascii pl ~levels);
    Option.iter
      (fun path ->
        Fbb_layout.Render.save_svg ~path pl ~levels;
        Printf.printf "svg written to %s\n" path)
      svg;
    Ok ()

(* --- the deadline-bounded anytime cascade ------------------------------ *)

let status_str = function
  | Fbb_core.Cascade.Accepted -> "accepted"
  | Fbb_core.Cascade.No_candidate -> "no candidate"
  | Fbb_core.Cascade.Rejected -> "REJECTED BY SIGN-OFF"
  | Fbb_core.Cascade.Exhausted -> "budget exhausted"
  | Fbb_core.Cascade.Crashed m -> Printf.sprintf "crashed (%s)" m

let optimize_cascade design file beta_pct clusters rows ~deadline_ms ~work svg
    ascii =
  let* pl = load_placement ~design ~file ~rows in
  report_placement pl;
  let beta = beta_pct /. 100.0 in
  let p = Fbb_core.Problem.build ~beta pl in
  Format.printf "problem: %a@." Fbb_core.Problem.pp_summary p;
  let budget =
    match (deadline_ms, work) with
    | None, None -> Fbb_util.Budget.unlimited
    | d, w ->
      Fbb_util.Budget.create
        ?deadline_s:(Option.map (fun ms -> ms /. 1000.0) d)
        ?work:w ()
  in
  let r = Fbb_core.Cascade.solve ~max_clusters:clusters ~budget p in
  print_string "degradation report:\n";
  List.iter
    (fun (a : Fbb_core.Cascade.attempt) ->
      Printf.printf "  %-10s %-22s%s  work %d, %.3fs\n"
        (Fbb_core.Cascade.stage_name a.Fbb_core.Cascade.stage)
        (status_str a.Fbb_core.Cascade.status)
        (match a.Fbb_core.Cascade.leakage_nw with
        | Some l -> Printf.sprintf "  leakage %.3f uW" (l /. 1000.0)
        | None -> "")
        a.Fbb_core.Cascade.work_spent a.Fbb_core.Cascade.elapsed_s)
    r.Fbb_core.Cascade.attempts;
  if r.Fbb_core.Cascade.exhausted then
    print_string "budget: exhausted before the cascade finished\n";
  match r.Fbb_core.Cascade.outcome with
  | Fbb_core.Cascade.Infeasible ->
    Error
      (Printf.sprintf
         "infeasible: a %.1f%% slowdown cannot be compensated even with \
          every row at the highest bias level"
         beta_pct)
  | Fbb_core.Cascade.Solved { stage; levels; leakage_nw; gap_pct; optimal } ->
    Printf.printf
      "cascade (C=%d): stage %s, leakage %.3f uW, clusters %s%s%s\n" clusters
      (Fbb_core.Cascade.stage_name stage)
      (leakage_nw /. 1000.0)
      (String.concat "/"
         (List.map
            (fun l -> Printf.sprintf "%.2fV" (Fbb_tech.Bias.voltage l))
            (Fbb_core.Solution.clusters_used levels)))
      (if optimal then " [optimal]" else "")
      (match gap_pct with
      | Some g when not optimal -> Printf.sprintf " [gap <= %.1f%%]" g
      | Some _ | None -> "");
    if ascii then print_string (Fbb_layout.Render.ascii pl ~levels);
    Option.iter
      (fun path ->
        Fbb_layout.Render.save_svg ~path pl ~levels;
        Printf.printf "svg written to %s\n" path)
      svg;
    Ok ()

let cascade_arg =
  let doc =
    "Run the anytime fallback cascade (ilp, heuristic, single BB) with \
     independent sign-off instead of the refinement flow. Implied \
     by $(b,--deadline-ms) and $(b,--work-budget)."
  in
  Arg.(value & flag & info [ "cascade" ] ~doc)

let deadline_arg =
  let doc =
    "Wall-clock deadline for the cascade in milliseconds; the best \
     signed-off solution found in time wins."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let work_budget_arg =
  let doc =
    "Deterministic work budget for the cascade (abstract ticks: B&B nodes, \
     descent rounds, oracle leaves). Same budget, same answer - at any \
     $(b,--jobs)."
  in
  Arg.(value & opt (some int) None & info [ "work-budget" ] ~docv:"N" ~doc)

let optimize_cmd =
  let run d f b c r i s svg ascii cascade deadline_ms work jobs trace profile
      profile_csv =
    set_jobs jobs;
    let use_cascade = cascade || deadline_ms <> None || work <> None in
    match
      Obs_cli.run ~span:"fbbopt.optimize" ~trace ~profile ~profile_csv
        (fun () ->
          if use_cascade then
            optimize_cascade d f b c r ~deadline_ms ~work svg ascii
          else optimize d f b c r i s svg ascii)
    with
    | Ok () -> `Ok ()
    | Error m -> `Error (false, m)
    | exception Sys_error m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Row-clustered FBB allocation for a given slowdown coefficient")
    Term.(
      ret
        (const run $ design_arg $ bench_file_arg $ beta_arg $ clusters_arg
        $ rows_arg $ ilp_arg $ ilp_seconds_arg $ svg_arg $ ascii_arg
        $ cascade_arg $ deadline_arg $ work_budget_arg
        $ jobs_arg $ trace_arg $ profile_arg $ profile_csv_arg))

(* ----- tune ------------------------------------------------------------- *)

let tune design file rows condition magnitude seed guardband =
  let* pl = load_placement ~design ~file ~rows in
  report_placement pl;
  let rng = Fbb_util.Rng.create ~seed in
  let* derate =
    match condition with
    | "slowdown" -> Ok (Fbb_variation.Models.uniform (magnitude /. 100.0))
    | "temperature" ->
      Ok (fun g -> Fbb_variation.Models.temperature_derate magnitude *. Fbb_variation.Models.uniform 0.0 g)
    | "aging" -> Ok (fun _ -> Fbb_variation.Models.nbti_aging_derate magnitude)
    | "process" ->
      Ok
        (Fbb_variation.Models.combine
           [
             Fbb_variation.Models.spatially_correlated rng
               ~sigma:(magnitude /. 100.0) pl;
             Fbb_variation.Models.uniform (magnitude /. 200.0);
           ])
    | c ->
      Error
        (Printf.sprintf
           "unknown condition %s (slowdown|temperature|aging|process)" c)
  in
  let o = Fbb_variation.Tuning.compensate ~guardband pl ~derate in
  Printf.printf "sensor: %d alarm(s), measured slowdown %.2f%% (raw %.2f%%)\n"
    o.Fbb_variation.Tuning.alarms_before
    (o.Fbb_variation.Tuning.measured_beta *. 100.0)
    (o.Fbb_variation.Tuning.raw_beta *. 100.0);
  Printf.printf "timing: nominal %.1f ps, degraded %.1f ps, compensated %.1f ps\n"
    o.Fbb_variation.Tuning.dcrit_nominal o.Fbb_variation.Tuning.dcrit_degraded
    o.Fbb_variation.Tuning.dcrit_compensated;
  Printf.printf "leakage: %.3f uW (nominal %.3f uW)\n"
    (o.Fbb_variation.Tuning.leakage_nw /. 1000.0)
    (o.Fbb_variation.Tuning.nominal_leakage_nw /. 1000.0);
  Printf.printf "timing closed: %b\n" o.Fbb_variation.Tuning.timing_closed;
  if o.Fbb_variation.Tuning.timing_closed then Ok ()
  else Error "compensation failed to close timing"

let tune_cmd =
  let condition_arg =
    Arg.(value & opt string "slowdown"
           & info [ "condition" ] ~docv:"KIND"
               ~doc:"slowdown | temperature | aging | process")
  in
  let magnitude_arg =
    Arg.(value & opt float 8.0
           & info [ "magnitude" ] ~docv:"X"
               ~doc:"percent slowdown, deg C, years, or sigma%% depending on \
                     condition")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed")
  in
  let guardband_arg =
    Arg.(value & opt float 0.15
           & info [ "guardband" ] ~docv:"F" ~doc:"sensor guardband fraction")
  in
  let run d f r c m s g jobs trace profile profile_csv =
    set_jobs jobs;
    match
      Obs_cli.run ~span:"fbbopt.tune" ~trace ~profile ~profile_csv (fun () ->
          tune d f r c m s g)
    with
    | Ok () -> `Ok ()
    | Error msg -> `Error (false, msg)
    | exception Sys_error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Closed-loop post-silicon tuning simulation")
    Term.(
      ret
        (const run $ design_arg $ bench_file_arg $ rows_arg $ condition_arg
        $ magnitude_arg $ seed_arg $ guardband_arg $ jobs_arg $ trace_arg
        $ profile_arg $ profile_csv_arg))

(* ----- recover ----------------------------------------------------------- *)

let recover design file rows margin clusters =
  let* pl = load_placement ~design ~file ~rows in
  report_placement pl;
  let t = Fbb_core.Recovery.build ~margin:(margin /. 100.0) pl in
  let r = Fbb_core.Recovery.optimize ~max_clusters:clusters t in
  Printf.printf
    "timing budget: %.1f ps (margin %.1f%%)\n" t.Fbb_core.Recovery.budget_ps
    margin;
  Printf.printf
    "leakage: %.3f uW nominal -> %.3f uW with RBB (%.1f%% recovered)\n"
    (r.Fbb_core.Recovery.nominal_leakage_nw /. 1000.0)
    (r.Fbb_core.Recovery.recovered_leakage_nw /. 1000.0)
    r.Fbb_core.Recovery.savings_pct;
  Printf.printf "clusters: %s (signoff %s)\n"
    (String.concat "/"
       (List.map
          (fun l ->
            Printf.sprintf "%.2fV" t.Fbb_core.Recovery.levels.(l))
          (Fbb_core.Solution.clusters_used r.Fbb_core.Recovery.levels)))
    (if r.Fbb_core.Recovery.signoff_clean then "clean" else "NOT CLEAN");
  Ok ()

let recover_cmd =
  let margin_arg =
    Arg.(value & opt float 5.0
           & info [ "margin" ] ~docv:"PCT"
               ~doc:"Timing margin over the critical delay to spend on RBB.")
  in
  let run d f r m c =
    match recover d f r m c with
    | Ok () -> `Ok ()
    | Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Active leakage recovery with row-level reverse body bias")
    Term.(
      ret
        (const run $ design_arg $ bench_file_arg $ rows_arg $ margin_arg
        $ clusters_arg))

(* ----- trace ------------------------------------------------------------ *)

let trace_file_arg =
  let doc = "JSONL trace recorded with $(b,--trace)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let out_arg =
  let doc = "Write the result to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let write_out out content =
  match out with
  | None -> print_string content
  | Some path ->
    Fbb_util.Atomic_io.write_atomic ~path content;
    Printf.printf "written %s\n" path

let with_trace path f =
  match f (Fbb_obs.Trace_export.load path) with
  | () -> `Ok ()
  | exception Failure msg -> `Error (false, msg)
  | exception Sys_error msg -> `Error (false, msg)

let trace_id_arg =
  let doc =
    "Keep only the span events stamped with this trace id (as printed by \
     $(b,--trace) runs); process-global events (counters, gauges, histogram \
     observations, GC samples) are dropped."
  in
  Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID" ~doc)

let trace_convert_cmd =
  let run path out trace_id =
    with_trace path @@ fun events ->
    let events =
      match trace_id with
      | None -> events
      | Some trace -> Fbb_obs.Trace_export.filter_trace ~trace events
    in
    write_out out
      (Fbb_util.Json.to_string ~indent:false
         (Fbb_obs.Trace_export.to_chrome events))
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a JSONL trace to Chrome trace_event JSON (load in \
          ui.perfetto.dev or chrome://tracing)")
    Term.(ret (const run $ trace_file_arg $ out_arg $ trace_id_arg))

let trace_flame_cmd =
  let run path out =
    with_trace path @@ fun events ->
    write_out out
      (Fbb_obs.Trace_export.folded_to_string
         (Fbb_obs.Trace_export.to_folded events))
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Render a JSONL trace as folded flamegraph stacks (self time in \
          microseconds, for flamegraph.pl / inferno)")
    Term.(ret (const run $ trace_file_arg $ out_arg))

let trace_stats_cmd =
  let run path =
    with_trace path @@ fun events ->
    print_string (Fbb_obs.Trace_export.stats events)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Replay a JSONL trace through the aggregate sink and print its \
          report plus span-balance checks")
    Term.(ret (const run $ trace_file_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Offline converters for recorded JSONL traces")
    [ trace_convert_cmd; trace_flame_cmd; trace_stats_cmd ]

(* ----- bench-compare ---------------------------------------------------- *)

let bench_compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench.json.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Fresh bench.json to judge.")
  in
  let max_regress_arg =
    Arg.(
      value & opt float 25.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Fail when a gated metric (experiment seconds, GC allocation) \
             grew by more than $(docv) percent beyond the noise floor.")
  in
  let run old_path new_path max_regress_pct =
    let load what path =
      match Fbb_obs.Benchfile.load path with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s record %s: %s" what path msg)
    in
    match
      let* old_t = load "old" old_path in
      let* new_t = load "new" new_path in
      Ok (Fbb_obs.Benchfile.compare ~max_regress_pct old_t new_t)
    with
    | Error msg ->
      prerr_endline msg;
      exit 2
    | Ok c ->
      print_string (Fbb_obs.Benchfile.render c);
      if c.Fbb_obs.Benchfile.missing <> [] then exit 2
      else if Fbb_obs.Benchfile.regressed c then begin
        Printf.printf "REGRESSION: gated metric(s) beyond %.0f%%\n"
          max_regress_pct;
        exit 1
      end
      else print_string "bench-compare: ok\n"
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Diff two bench.json records; exit 1 on regression, 2 on \
          missing/unreadable data")
    Term.(const run $ old_arg $ new_arg $ max_regress_arg)

(* ----- top -------------------------------------------------------------- *)

let url_arg =
  let doc =
    "Base URL of a telemetry endpoint ($(b,fbbd serve --metrics-port))."
  in
  Arg.(
    value
    & opt string "http://127.0.0.1:9621"
    & info [ "u"; "url" ] ~docv:"URL" ~doc)

(* One dashboard frame from a /snapshot.json document: a header line
   plus a Texttab of every series with min/last/max and a sparkline. *)
let render_snapshot ~spark_width j =
  let module J = Fbb_util.Json in
  let module T = Fbb_util.Texttab in
  let buf = Buffer.create 4096 in
  let gauges = Option.value (J.member_obj "gauges" j) ~default:[] in
  let gauge name =
    Option.bind (List.assoc_opt name gauges) J.to_num
  in
  Printf.bprintf buf "fbbopt top — ts %.1f  sampler ticks %s  overhead %s\n"
    (Option.value (J.member_num "ts_unix" j) ~default:Float.nan)
    (match gauge "obs.telemetry.ticks" with
    | Some v -> Printf.sprintf "%.0f" v
    | None -> "-")
    (match gauge "obs.telemetry.overhead_pct" with
    | Some v -> Printf.sprintf "%.3f%%" v
    | None -> "-");
  let series = Option.value (J.member_obj "series" j) ~default:[] in
  if series = [] then Buffer.add_string buf "(no series yet)\n"
  else begin
    let tab =
      T.create
        ~headers:
          [ "series"; "min"; "last"; "max";
            Printf.sprintf "last %d ticks" spark_width ]
    in
    T.set_align tab 4 T.Left;
    List.iter
      (fun (name, v) ->
        match v with
        | J.Arr pts ->
          let vals =
            List.filter_map
              (function
                | J.Arr [ _; J.Num v ] -> Some v
                | J.Arr [ _; J.Null ] -> Some Float.nan
                | _ -> None)
              pts
          in
          let finite = List.filter Float.is_finite vals in
          let fold f init = List.fold_left f init finite in
          let mn = if finite = [] then Float.nan else fold Float.min Float.infinity in
          let mx = if finite = [] then Float.nan else fold Float.max Float.neg_infinity in
          let last =
            match List.rev vals with [] -> Float.nan | v :: _ -> v
          in
          T.add_row tab
            [
              name;
              T.cell_f ~digits:4 mn;
              T.cell_f ~digits:4 last;
              T.cell_f ~digits:4 mx;
              T.sparkline ~width:spark_width (Array.of_list vals);
            ]
        | _ -> ())
      series;
    Buffer.add_string buf (T.render tab)
  end;
  Buffer.contents buf

let top_cmd =
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (for scripts and CI).")
  in
  let interval_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh interval.")
  in
  let width_arg =
    Arg.(
      value & opt int 32
      & info [ "spark-width" ] ~docv:"N" ~doc:"Sparkline window in ticks.")
  in
  let run url once interval_ms spark_width =
    let fetch () =
      match Fbb_obs.Telemetry.http_get (url ^ "/snapshot.json") with
      | Error _ as e -> e
      | Ok body -> (
        match Fbb_util.Json.parse_opt body with
        | Some j -> Ok j
        | None -> Error (url ^ "/snapshot.json: malformed JSON"))
    in
    if once then
      match fetch () with
      | Ok j ->
        print_string (render_snapshot ~spark_width j);
        `Ok ()
      | Error m -> `Error (false, m)
    else begin
      (* Live mode: clear-and-redraw until the endpoint goes away or
         the user interrupts. *)
      let rec loop misses =
        if misses > 5 then
          `Error (false, url ^ ": endpoint unreachable, giving up")
        else begin
          (match fetch () with
          | Ok j ->
            print_string ("\027[2J\027[H" ^ render_snapshot ~spark_width j)
          | Error m -> Printf.printf "(%s)\n%!" m);
          Unix.sleepf (Float.max 0.05 (interval_ms /. 1000.0));
          match fetch () with
          | Ok _ -> loop 0
          | Error _ -> loop (misses + 1)
        end
      in
      loop 0
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live TTY dashboard over a telemetry endpoint: every series with \
          sparklines, refreshed in place")
    Term.(ret (const run $ url_arg $ once_arg $ interval_arg $ width_arg))

(* ----- scrape ----------------------------------------------------------- *)

let scrape_cmd =
  let pos_url_arg =
    let doc = "Base URL of a telemetry endpoint." in
    Arg.(
      value
      & pos 0 string "http://127.0.0.1:9621"
      & info [] ~docv:"URL" ~doc)
  in
  let max_overhead_arg =
    Arg.(
      value & opt float 2.0
      & info [ "max-overhead-pct" ] ~docv:"PCT"
          ~doc:
            "Fail when the endpoint's self-reported sampler overhead \
             (obs.telemetry.overhead_pct) exceeds $(docv) percent.")
  in
  let run url max_overhead =
    let module J = Fbb_util.Json in
    let ( let* ) = Result.bind in
    match
      let* metrics = Fbb_obs.Telemetry.http_get (url ^ "/metrics") in
      let* () =
        Result.map_error
          (fun e -> Printf.sprintf "/metrics is not valid Prometheus text: %s" e)
          (Fbb_obs.Promtext.validate metrics)
      in
      let* body = Fbb_obs.Telemetry.http_get (url ^ "/snapshot.json") in
      let* j =
        Option.to_result
          ~none:"/snapshot.json is not well-formed JSON"
          (J.parse_opt body)
      in
      let* () =
        match J.member_str "schema" j with
        | Some "fbb-telemetry-1" -> Ok ()
        | Some s -> Error (Printf.sprintf "unexpected snapshot schema %S" s)
        | None -> Error "snapshot has no \"schema\""
      in
      let overhead =
        Option.bind
          (Option.bind (J.member_obj "gauges" j)
             (List.assoc_opt "obs.telemetry.overhead_pct"))
          J.to_num
      in
      let* () =
        match overhead with
        | Some pct when pct > max_overhead ->
          Error
            (Printf.sprintf "sampler overhead %.3f%% exceeds budget %.1f%%" pct
               max_overhead)
        | Some _ | None -> Ok ()
      in
      let metric_lines =
        String.split_on_char '\n' metrics
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        |> List.length
      in
      let series =
        match J.member_obj "series" j with Some s -> List.length s | None -> 0
      in
      Ok
        (Printf.printf
           "scrape ok: %d metric sample(s), %d series, sampler overhead %s\n"
           metric_lines series
           (match overhead with
           | Some pct -> Printf.sprintf "%.3f%%" pct
           | None -> "n/a"))
    with
    | Ok () -> `Ok ()
    | Error m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch /metrics and /snapshot.json from a telemetry endpoint, \
          validate both formats and the sampler's overhead budget; exits \
          non-zero on any failure (the CI smoke check)")
    Term.(ret (const run $ pos_url_arg $ max_overhead_arg))

(* ----- main ------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "fbbopt" ~version:"1.0.0"
      ~doc:"Physically clustered forward body biasing (DATE'09 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            characterize_cmd;
            optimize_cmd;
            tune_cmd;
            recover_cmd;
            trace_cmd;
            bench_compare_cmd;
            top_cmd;
            scrape_cmd;
          ]))
