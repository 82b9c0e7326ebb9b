(* ilp-grid: the paper's exact ILP (Enumerate, heuristic warm start, as
   Flow.evaluate runs it) on the Table-1 cells that converge in seconds.
   One answer = one cell: Problem.build, Heuristic.optimize for the warm
   start, then Ilp_opt.optimize to a proved optimum. The seed only
   orders the cells, so every run does the same work. *)

open Common
module B = Fbb_netlist.Benchmarks

type cell = { design : string; beta_pct : int; c : int }

let cell_name k = Printf.sprintf "%s/b%d/C%d" k.design k.beta_pct k.c

(* c5315 b10 C2 is left out: 135 s and 1.18M pivots, it would dominate.
   So are c5315 b5 C3 (6-8 s) and c3540 b10 C3 (3-4 s, 35-40% of a
   pass): without them four passes fit in a 35 s run, and each cell
   reports the median of its passes. *)
let cells =
  List.map
    (fun (design, beta_pct, c) -> { design; beta_pct; c })
    [
      ("c1355", 5, 2); ("c1355", 5, 3); ("c1355", 10, 2); ("c1355", 10, 3);
      ("c3540", 5, 2); ("c3540", 5, 3); ("c3540", 10, 2);
      ("c5315", 5, 2);
    ]

(* The traced run also times this subset untraced, for the overhead. *)
let overhead_cells = List.filter (fun k -> k.design = "c1355") cells

let designs = List.sort_uniq compare (List.map (fun k -> k.design) cells)
let beta k = float_of_int k.beta_pct /. 100.0

type answer = {
  cell : cell;
  levels : int array option;
  leakage_nw : float option;
  proved_optimal : bool;
  single_bb_nw : float option;
  build_s : float;
  paths : int;
  total_s : float;
}

let prepare_all () =
  List.map (fun d -> (d, Fbb_core.Flow.prepare (B.find d))) designs

let solve prepared k =
  (* Every cell starts from the same heap state, whatever ran before. *)
  Gc.compact ();
  let t0 = now () in
  let placement = (List.assoc k.design prepared).Fbb_core.Flow.placement in
  let p, build_s =
    timed (fun () -> Fbb_core.Problem.build ~beta:(beta k) placement)
  in
  let h = Fbb_core.Heuristic.optimize ~max_clusters:k.c p in
  let config = { Fbb_core.Ilp_opt.default_config with max_clusters = k.c } in
  let warm_start = Option.map (fun (h : Fbb_core.Heuristic.result) -> h.levels) h in
  let r = Fbb_core.Ilp_opt.optimize ~config ?warm_start p in
  {
    cell = k;
    levels = r.Fbb_core.Ilp_opt.levels;
    leakage_nw = r.Fbb_core.Ilp_opt.leakage_nw;
    proved_optimal = r.Fbb_core.Ilp_opt.proved_optimal;
    single_bb_nw =
      Option.map (fun (h : Fbb_core.Heuristic.result) -> h.single_bb_leakage_nw) h;
    build_s;
    paths = Fbb_core.Problem.num_paths p;
    total_s = now () -. t0;
  }

(* Checks run outside the timed phase, against a problem rebuilt from
   the public workload definition (design name, beta). *)
let check ~reference a =
  attempt ();
  let name = cell_name a.cell in
  match (a.levels, a.leakage_nw, a.proved_optimal) with
  | Some levels, Some leak, true ->
    let p = reference a.cell in
    if not (Fbb_core.Cascade.verify p ~max_clusters:a.cell.c levels) then
      fail "%s: assignment fails Cascade.verify" name
    else
      let recomputed = Fbb_core.Problem.total_leakage p ~levels in
      if not (close recomputed leak) then
        fail "%s: reported leakage %.17g <> recomputed %.17g" name leak recomputed
      else (
        match List.assoc_opt name Expected.ilp_optima with
        | None -> fail "%s: no stored optimum" name
        | Some opt when not (close opt leak) ->
          fail "%s: optimum %.17g <> stored %.17g" name leak opt
        | Some _ -> ())
  | _ -> fail "%s: no proved optimum" name

let reference_of prepared =
  let memo = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt memo k with
    | Some p -> p
    | None ->
      let placement = (List.assoc k.design prepared).Fbb_core.Flow.placement in
      let p = Fbb_core.Problem.build ~beta:(beta k) placement in
      Hashtbl.replace memo k p;
      p

let saved_pct a =
  match (a.single_bb_nw, a.leakage_nw) with
  | Some base, Some leak -> Stats.ratio_pct base leak
  | _ -> 0.0

(* Run the seed-ordered grid in whole passes, a pass 5-8 s: four
   passes at 35 s. *)
let passes ~seed ~seconds prepared =
  let order = shuffled ~seed cells in
  List.init (pass_count ~seconds ~nominal_s:8.5) (fun _ ->
      List.map (solve prepared) order)

let setup ~reps =
  let times =
    List.init reps (fun _ ->
        Gc.compact ();
        snd (timed prepare_all))
  in
  (prepare_all (), times)

let run ~seed ~seconds ~trace ~setup_reps =
  let prepared, setup_times = setup ~reps:setup_reps in
  let reference = reference_of prepared in
  if not trace then begin
    let passes = passes ~seed ~seconds prepared in
    let answers = List.concat passes in
    List.iter (check ~reference) answers;
    let cell_s =
      per_unit_median (List.map (fun a -> (cell_name a.cell, a.total_s)) answers)
    in
    let cell_ms = Array.of_list (List.map (fun (_, s) -> s *. 1000.0) cell_s) in
    let solve_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 cell_s in
    let n = List.length answers in
    let first = List.hd passes in
    [
      metric ~samples:setup_reps "setup_s" "s" (median Fun.id setup_times);
      metric ~samples:n "answers_per_s" "1/s"
        (float_of_int (List.length cells) /. solve_s);
      metric ~samples:n "answer_p50_ms" "ms" (Stats.percentile cell_ms 50.0);
      metric ~samples:(List.length first) "leak_saved_pct" "%"
        (Stats.mean (Array.of_list (List.map saved_pct (List.sort compare first))));
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    (* Printed, not gated: the grid's time to proved optima, the sum of
       the per-cell medians, and the p90 cell (see NOTES.md). *)
    [
      metric ~samples:(List.length passes) "solve_s" "s" solve_s;
      metric ~samples:n "answer_p90_ms" "ms" (Stats.percentile cell_ms 90.0);
    ]
  end
  else begin
    let order = shuffled ~seed cells in
    let in_overhead a = List.mem a.cell overhead_cells in
    let untraced =
      List.map (solve prepared) (List.filter (fun k -> List.mem k overhead_cells) order)
    in
    let answers, w =
      Layers.traced (fun () ->
          (* Traced once more, for the place.* spans Flow.prepare opens. *)
          ignore (prepare_all ());
          List.map (solve prepared) order)
    in
    List.iter (check ~reference) answers;
    let sum f l = List.fold_left (fun acc a -> acc +. f a) 0.0 l in
    let traced_s = sum (fun a -> a.total_s) (List.filter in_overhead answers) in
    let untraced_s = sum (fun a -> a.total_s) untraced in
    Layers.metrics
      (Layers.window_values w
      @ [
          ("place.generate_s", w.self_s "place.generate");
          ("place.place_s", w.self_s "place.place");
          ("problem.build_s", sum (fun a -> a.build_s) answers);
          ("problem.paths", float_of_int (List.fold_left (fun acc a -> acc + a.paths) 0 answers));
          ("obs.trace_overhead_pct", overhead_pct ~untraced:untraced_s ~traced:traced_s);
        ]),
    []
  end
