(* bench.json glue: assemble an fbb-bench-2 session record from the
   harness aggregate plus the process-wide sources only the harness
   sees - counter totals and domain-pool utilization. The written file
   is what CI diffs against the committed bench/baseline.json with
   [fbbopt bench-compare]. *)

let exp_seconds agg =
  List.filter_map
    (fun (name, _count, total_s, _mean, _max) ->
      if String.length name > 4 && String.sub name 0 4 = "exp." then
        Some (String.sub name 4 (String.length name - 4), total_s)
      else None)
    (Fbb_obs.Aggregate.span_rows agg)

let record agg =
  Fbb_obs.Benchfile.make
    ~jobs:(Fbb_par.Pool.jobs ())
    ~experiments:(exp_seconds agg)
    ~counters:(Fbb_obs.Counter.totals ())
    ~pool:(Fbb_par.Pool.utilization ())
    agg

let save agg =
  match exp_seconds agg with
  | [] -> ()
  | _ ->
    let path = Exp_common.out_path "bench.json" in
    Fbb_obs.Benchfile.save (record agg) ~path;
    Printf.printf "session record written to %s\n" path
