(* mc-10k: Monte-Carlo yield recovery (Montecarlo.run) on the generated
   10k-gate module, seed 2009. One answer = one 32-die yield estimate.
   The die seeds come from a fixed pool with stored results; the
   benchmark seed only orders them, so every run does the same work. *)

open Common
module MC = Fbb_variation.Montecarlo

let gates = 10_000
let module_seed = 2009
let samples = 32
let sigma = 0.05
let die_seeds = [ 1; 2; 3; 4 ]

(* The traced run also times this subset untraced, for the overhead. *)
let overhead_seeds = [ 1; 2 ]

let generate () = Fbb_netlist.Generators.random_module ~seed:module_seed ~gates ()

(* Set-up is generation plus placement; each is timed on its own. *)
let setup_once () =
  Gc.compact ();
  let nl, gen_s = timed generate in
  let pl, place_s = timed (fun () -> Fbb_place.Placement.place nl) in
  (pl, gen_s, place_s)

let estimate pl seed =
  (* Every estimate starts from the same heap state. *)
  Gc.compact ();
  let r, s = timed (fun () -> MC.run ~seed ~samples ~sigma pl) in
  (seed, r, s)

let check (seed, (r : MC.t), _) =
  attempt ();
  match List.assoc_opt seed Expected.mc with
  | None -> fail "mc seed %d: no stored result" seed
  | Some (yield_pct, mean_nw) ->
    if r.MC.samples <> samples || not r.MC.complete then
      fail "mc seed %d: ran %d of %d dies" seed r.MC.samples samples
    else if not (close r.MC.clustered.yield_pct yield_pct) then
      fail "mc seed %d: yield %.17g <> stored %.17g" seed
        r.MC.clustered.yield_pct yield_pct
    else if not (close r.MC.clustered.mean_leakage_nw mean_nw) then
      fail "mc seed %d: mean leakage %.17g <> stored %.17g" seed
        r.MC.clustered.mean_leakage_nw mean_nw

let saved_pct (_, (r : MC.t), _) =
  Stats.ratio_pct r.MC.single_bb.mean_leakage_nw r.MC.clustered.mean_leakage_nw

(* Whole passes over the seed pool, a pass 4-6 s: six at 35 s. *)
let passes ~seed ~seconds pl =
  let order = shuffled ~seed die_seeds in
  List.concat
    (List.init (pass_count ~seconds ~nominal_s:5.5) (fun _ -> List.map (estimate pl) order))

(* Set-up [reps] times; only the last placement stays live, so the
   peak RSS counts one. Returns it with each rep's (generate, place)
   times. *)
let setups reps =
  let rec go i times =
    let pl, gen_s, place_s = setup_once () in
    let times = (gen_s, place_s) :: times in
    if i + 1 < reps then go (i + 1) times else (pl, List.rev times)
  in
  go 0 []

let run ~seed ~seconds ~trace ~setup_reps =
  let pl, setup_times = setups setup_reps in
  if not trace then begin
    let answers = passes ~seed ~seconds pl in
    List.iter check answers;
    let per_seed = per_unit_median (List.map (fun (seed, _, s) -> (seed, s)) answers) in
    let run_ms = Array.of_list (List.map (fun (_, s) -> s *. 1000.0) per_seed) in
    let total_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 per_seed in
    let n = List.length answers in
    let first = List.filteri (fun i _ -> i < List.length die_seeds) answers in
    [
      metric ~samples:setup_reps "setup_s" "s" (median (fun (g, p) -> g +. p) setup_times);
      metric ~samples:(n * samples) "answers_per_s" "1/s"
        (float_of_int (List.length per_seed * samples) /. total_s);
      metric ~samples:n "answer_p50_ms" "ms" (Stats.percentile run_ms 50.0);
      metric ~samples:(List.length first) "leak_saved_pct" "%"
        (Stats.mean
           (Array.of_list
              (List.map saved_pct
                 (List.sort (fun (a, _, _) (b, _, _) -> compare a b) first))));
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    (* Printed, not gated (see NOTES.md). *)
    [ metric ~samples:n "answer_p90_ms" "ms" (Stats.percentile run_ms 90.0) ]
  end
  else begin
    let order = shuffled ~seed die_seeds in
    let untraced = List.map (estimate pl) (List.filter (fun s -> List.mem s overhead_seeds) order) in
    let answers, w = Layers.traced (fun () -> List.map (estimate pl) order) in
    List.iter check answers;
    let gen_s, place_s = List.hd setup_times in
    let sum l = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 l in
    let traced_s =
      sum (List.filter (fun (s, _, _) -> List.mem s overhead_seeds) answers)
    in
    let dies = List.length answers * samples in
    Layers.metrics
      (Layers.window_values w
      @ [
          ("place.generate_s", gen_s);
          ("place.place_s", place_s);
          ("problem.build_s", w.Layers.self_s "problem");
          ("mc.die_ms", sum answers *. 1000.0 /. float_of_int dies);
          ("obs.trace_overhead_pct", overhead_pct ~untraced:(sum untraced) ~traced:traced_s);
        ]),
    []
  end
