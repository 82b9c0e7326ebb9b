(* The repository benchmark. Usage:

     fbbbench.exe --workload ilp-grid|mc-10k|serve-open --seed N
                  --seconds S --trace 0|1 [--fbbd PATH]
     fbbbench.exe exact-test    work counters repeat across runs and widths
     fbbbench.exe record        print the stored reference values

   The last line of a workload run is one JSON object: correct,
   attempted, failed and metrics (end-to-end metrics with --trace 0,
   per-layer metrics with --trace 1). Any failed output check makes the
   run exit 1. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 30
let trace = ref 0
let fbbd = ref "_build/default/bin/fbbd.exe"

let usage () =
  prerr_endline
    "usage: fbbbench.exe --workload W --seed N --seconds S --trace 0|1 \
     [--fbbd PATH] | exact-test | record";
  exit 2

let rec parse = function
  | [] -> ()
  | "--workload" :: v :: rest -> workload := v; parse rest
  | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
  | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
  | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
  | "--fbbd" :: v :: rest -> fbbd := v; parse rest
  | _ -> usage ()

let run_workload () =
  Fbb_par.Pool.set_jobs Common.pool_width;
  let trace = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let metrics, info =
    match !workload with
    | "ilp-grid" -> Ilp_grid.run ~seed ~seconds ~trace ~setup_reps:(if trace then 1 else 15)
    | "mc-10k" -> Mc10k.run ~seed ~seconds ~trace ~setup_reps:(if trace then 1 else 3)
    | "serve-open" -> Serve_open.run ~fbbd:!fbbd ~seed ~seconds ~trace
    | _ -> usage ()
  in
  Common.print_result ~workload:!workload ~info metrics;
  if Common.checks.failed > 0 || Common.checks.attempted = 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "exact-test" ] -> Exact.test ()
  | [ "record" ] -> Exact.record ~fbbd:!fbbd
  | [ "record"; "--fbbd"; path ] -> Exact.record ~fbbd:path
  | args -> parse args; run_workload ()
