(* Shared plumbing for the benchmark workloads: wall-clock helpers,
   quantiles, output checks, metric records and the result line. *)

let now = Fbb_obs.Clock.now_s

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

module Stats = Fbb_util.Stats

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* How much slower the traced run was, in % of the untraced one. *)
let overhead_pct ~untraced ~traced = -.Stats.ratio_pct untraced traced

(* The median of [f] over repeats. *)
let median f xs = Stats.percentile (Array.of_list (List.map f xs)) 50.0

(* Pool width of the in-process workloads, the exact test and the
   reference values: at most the host's cores. *)
let pool_width = min 2 (Domain.recommended_domain_count ())

(* Floats that went through a computation twice (or through the JSON
   wire) compare within a relative epsilon. *)
let close ?(rel = 1e-9) a b =
  Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ----- output checks ----------------------------------------------------- *)

(* Every answer the benchmark checks is one attempt; a failed check or a
   failed request is one failure. The run fails on any failure. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks = { attempted = 0; failed = 0 }

let attempt () = checks.attempted <- checks.attempted + 1

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      checks.failed <- checks.failed + 1;
      Printf.eprintf "perfbench: check failed: %s\n%!" msg)
    fmt

(* ----- metrics ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* Peak resident set of a process, from /proc (VmHWM), in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %f" (fun kb -> kb /. 1024.0)
        else scan ()
    in
    scan ()

(* Human-readable lines first (name, value, unit, sample count), then
   the result as one JSON line, which must come last. *)
let print_result ~workload ?(info = []) metrics =
  List.iter
    (fun m ->
      Printf.printf "%-12s %-28s %16.6f %-6s (n=%d)\n" workload m.name m.value
        m.unit_ m.samples)
    (metrics @ info);
  let module J = Fbb_util.Json in
  let doc =
    J.Obj
      [
        ("correct", J.Bool (checks.failed = 0 && checks.attempted > 0));
        ("attempted", J.Num (float_of_int (max 1 checks.attempted)));
        ("failed", J.Num (float_of_int checks.failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (J.to_string doc)

(* ----- counters ---------------------------------------------------------- *)

let counters_delta ~before ~after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get after - get before

(* Seed-dependent order of a fixed set of work units. *)
let shuffled ~seed xs =
  let a = Array.of_list xs in
  Fbb_util.Rng.shuffle (Fbb_util.Rng.create ~seed) a;
  Array.to_list a

(* How many whole passes a run makes: at least two, else as many as
   fit in [seconds] at a nominal pass time. The count depends on the
   run's length only, so every run of a length does the same work. *)
let pass_count ~seconds ~nominal_s =
  max 2 (int_of_float (float_of_int seconds /. nominal_s))

(* Per-unit median of repeated timings [(unit, seconds)], in unit
   order. The host's speed moves a single timing by up to 2x from one
   second to the next; the median of a unit's repeats reads steadier
   than their best, which follows the luckiest repeat. *)
let per_unit_median timings =
  let keys = List.sort_uniq compare (List.map fst timings) in
  List.map
    (fun k -> (k, median snd (List.filter (fun (k', _) -> k' = k) timings)))
    keys
