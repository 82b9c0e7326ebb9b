(* The exact work counters, and the reference values the output checks
   compare against.

   [test] runs a slice of ilp-grid and mc-10k three times — twice at
   the benchmark's pool width, once at width 1 — and fails unless every
   exact counter repeats bit for bit. [record] recomputes the stored
   values: after a deliberate change of answers, run
   [fbbbench.exe record > perfbench/expected.ml]. *)

let exact_counters =
  [ "lp.pivots"; "bb.nodes"; "ilp.subsets_considered";
    "sta.nodes_repropagated"; "heuristic.moves" ]

let slice prepared pl () =
  List.iter
    (fun k -> ignore (Ilp_grid.solve prepared k))
    Ilp_grid.overhead_cells;
  ignore (Mc10k.estimate pl 1)

let counts f =
  let before = Fbb_obs.Counter.totals () in
  f ();
  let after = Fbb_obs.Counter.totals () in
  List.map (fun n -> (n, Common.counters_delta ~before ~after n)) exact_counters

let test () =
  let prepared = Ilp_grid.prepare_all () in
  let pl, _, _ = Mc10k.setup_once () in
  let at jobs =
    Fbb_par.Pool.set_jobs jobs;
    counts (slice prepared pl)
  in
  let width = Common.pool_width in
  let runs = [ ("width 2, run 1", at width); ("width 2, run 2", at width); ("width 1", at 1) ] in
  let reference = snd (List.hd runs) in
  let ok = ref true in
  List.iter
    (fun (label, got) ->
      List.iter2
        (fun (n, want) (_, v) ->
          Printf.printf "%-16s %-24s %d\n" label n v;
          if v <> want then begin
            ok := false;
            Printf.printf "  MISMATCH: %s %d <> %d\n" n v want
          end;
          if v = 0 then begin
            ok := false;
            Printf.printf "  ZERO: %s did no counted work\n" n
          end)
        reference got)
    runs;
  if !ok then print_endline "exact counters: ok"
  else begin
    print_endline "exact counters: FAILED";
    exit 1
  end

let record ~fbbd =
  Fbb_par.Pool.set_jobs Common.pool_width;
  let prepared = Ilp_grid.prepare_all () in
  print_endline
    "(* Reference values for the output checks, printed by\n\
    \   [fbbbench.exe record] at pool width 2. Leakage in nW, yield in %. *)\n";
  print_endline "let ilp_optima : (string * float) list =\n  [";
  List.iter
    (fun k ->
      let a = Ilp_grid.solve prepared k in
      match (a.Ilp_grid.leakage_nw, a.Ilp_grid.proved_optimal) with
      | Some leak, true ->
        Printf.printf "    (%S, %.17g);\n%!" (Ilp_grid.cell_name k) leak
      | _ -> Printf.printf "    (* %s: not proved optimal *)\n%!" (Ilp_grid.cell_name k))
    Ilp_grid.cells;
  print_endline
    "  ]\n\n\
     (* die seed -> (clustered yield %, clustered mean leakage nW) *)\n\
     let mc : (int * (float * float)) list =\n  [";
  let pl, _, _ = Mc10k.setup_once () in
  List.iter
    (fun s ->
      let _, r, _ = Mc10k.estimate pl s in
      let c = r.Fbb_variation.Montecarlo.clustered in
      Printf.printf "    (%d, (%.17g, %.17g));\n%!" s
        c.Fbb_variation.Montecarlo.yield_pct
        c.Fbb_variation.Montecarlo.mean_leakage_nw)
    Mc10k.die_seeds;
  print_endline
    "  ]\n\n\
     (* fbbd request kind -> proved-optimal leakage nW *)\n\
     let serve_optima : (string * float) list =\n  [";
  List.iter
    (fun (key, leak) -> Printf.printf "    (%S, %.17g);\n%!" key leak)
    (Serve_open.record_optima ~fbbd);
  print_endline "  ]"
