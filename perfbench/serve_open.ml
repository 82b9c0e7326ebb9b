(* serve-open: fbbd as its own process, driven open and closed loop.

   Requests are work-budgeted Solve requests with no deadline over a
   two-netlist mix. Arrivals are Poisson at two fixed offered rates,
   [light] and [heavy]; each request is timed from its due time, so a
   stall also counts against the requests queued behind it. A
   closed-loop phase over [nproc] connections measures capacity and the
   latency at full load, the gated figures. The load comes from this
   one process: the generator thread sends on one connection
   (pipelined) while one receiver thread reads the answers.

   The seed draws the arrival times and the order of a balanced request
   mix; every run sends each request kind equally often. *)

open Common
module P = Fbb_serve.Protocol
module J = Fbb_util.Json

let workloads =
  [ P.Generated { seed = 11; gates = 300; rows = 6 };
    P.Generated { seed = 12; gates = 400; rows = 6 } ]

(* (workload, beta, C) kinds; work-budgeted, so each answer repeats.
   The two kinds take about the same time (10-17 ms), so the latency
   distribution has one mode and its median does not flip between two. *)
let kinds =
  List.map2 (fun w beta -> (w, beta, 2)) workloads [ 0.05; 0.06 ]

let work_budget = 20_000

(* Offered rates, against a closed-loop capacity of 100-140 req/s on
   a 2-core host: [light] is a fifth to a quarter of it, [heavy] about
   half. *)
let light_rps = 25.0
let heavy_rps = 50.0
let capacity_rps_nominal = 130.0

(* The phases run interleaved in [rounds] rounds, so a drift of the
   host's speed falls on every phase alike. The open-loop percentiles
   pool the answers of all rounds; the closed-loop figures are medians
   over windows of all rounds. *)
let rounds = 4

(* Requests per phase and round, from the run's length: light gets 20%
   of it, heavy 10%, the closed-loop capacity phase 60%; at least 100
   per phase over the rounds, so p90 has ten samples beyond it. *)
let phase_n ~seconds share rate =
  max (100 / rounds) (int_of_float (share *. float_of_int seconds *. rate /. float_of_int rounds))

let connections = min 2 (Domain.recommended_domain_count ())

(* A phase is invalid when the generator sent late by more than this at
   p90: its latencies would then describe the generator, not fbbd. *)
let max_lag_p90_ms = 10.0

let kind_key (w, beta, c) = Printf.sprintf "%s/b%g/C%d" (P.workload_key w) beta c

let request ~id (w, beta, c) =
  P.Solve
    {
      id;
      client = None;
      workload = w;
      beta;
      max_clusters = c;
      deadline_ms = None;
      work_budget = Some work_budget;
    }

(* ----- the daemon process ------------------------------------------------ *)

type daemon = {
  pid : int;
  port : int;
  metrics_port : int option;
  out_drain : Thread.t;
  err_drain : Thread.t;
  err : Buffer.t;
}

let live = ref []

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live

let () = at_exit kill_all

let drain ic buf =
  Thread.create
    (fun () ->
      try
        while true do
          Buffer.add_string buf (input_line ic);
          Buffer.add_char buf '\n'
        done
      with End_of_file | Sys_error _ -> close_in_noerr ic)
    ()

let scan_port ~prefix line =
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Scanf.sscanf (String.sub line n (String.length line - n)) "%d" Option.some
  else None

let spawn ~fbbd ~jobs ~traced =
  let args =
    (* --duration-s bounds the daemon's life should this process die
       without stopping it. *)
    [ fbbd; "serve"; "--port"; "0"; "--jobs"; string_of_int jobs;
      "--queue-cap"; "256"; "--duration-s"; "170" ]
    @ if traced then [ "--metrics-port"; "0" ] else []
  in
  let env =
    (* The runtime prints the daemon's GC totals on exit. *)
    if traced then Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ())
    else Unix.environment ()
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env fbbd (Array.of_list args) env Unix.stdin out_w err_w
  in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close err_w;
  let out = Unix.in_channel_of_descr out_r in
  let either a b = match a with Some _ -> a | None -> b in
  let rec read_ports port mport =
    match port with
    | Some p when mport <> None || not traced -> (p, mport)
    | _ ->
      let line =
        try input_line out
        with End_of_file -> failwith "fbbd exited before listening"
      in
      read_ports
        (either (scan_port ~prefix:"fbbd listening on 127.0.0.1:" line) port)
        (either (scan_port ~prefix:"metrics on http://127.0.0.1:" line) mport)
  in
  let port, metrics_port = read_ports None None in
  let err = Buffer.create 1024 in
  let out_drain = drain out (Buffer.create 256) in
  let err_drain = drain (Unix.in_channel_of_descr err_r) err in
  { pid; port; metrics_port; out_drain; err_drain; err }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  Thread.join d.out_drain;
  Thread.join d.err_drain;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "fbbd exited with code %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "fbbd killed by signal %d" n

let connect d =
  match Fbb_serve.Client.connect ~port:d.port () with
  | Ok c -> c
  | Error msg -> failwith ("connect: " ^ msg)

(* Set-up: start the daemon and prepare every netlist of the mix. *)
let setup ~fbbd ~jobs ~traced =
  let t0 = now () in
  let d = spawn ~fbbd ~jobs ~traced in
  let c = connect d in
  List.iteri
    (fun i w ->
      match Fbb_serve.Client.rpc c (request ~id:(Printf.sprintf "warm-%d" i) (w, 0.05, 2)) with
      | Ok (P.Solved _) -> ()
      | Ok r -> failwith ("warm-up: " ^ P.encode_response r)
      | Error msg -> failwith ("warm-up: " ^ msg))
    workloads;
  Fbb_serve.Client.close c;
  (d, now () -. t0)

(* ----- load phases ------------------------------------------------------- *)

type phase = {
  label : string;
  sent : (int * P.response option) array;  (* kind index, answer *)
  latency_ms : float array;  (* from due time; infinity when unanswered *)
  done_at : float array;  (* when answered; infinity when unanswered *)
  started : float;
  lag_ms : float array;  (* generator lateness per send *)
  backlog_max : int;
  wall_s : float;
}

let balanced rng n =
  let k = List.length kinds in
  let a = Array.init n (fun i -> i mod k) in
  Fbb_util.Rng.shuffle rng a;
  a

(* Exponential inter-arrival gaps, stratified: gap i comes from the
   i-th of n equal-probability strata, then the gaps are shuffled. The
   arrivals stay Poisson-shaped, but every seed offers exactly the mean
   rate, which keeps the rate's own sampling noise out of the tail. *)
let poisson_gaps rng ~rate ~n =
  let gaps =
    Array.init n (fun i ->
        let u = (float_of_int i +. Fbb_util.Rng.uniform rng) /. float_of_int n in
        -.log (1.0 -. u) /. rate)
  in
  Fbb_util.Rng.shuffle rng gaps;
  gaps

let index_of_id id =
  match String.rindex_opt id '-' with
  | Some i -> int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
  | None -> None

let timeout_s = 60.0

let open_loop d ~rng ~label ~rate ~n =
  let kinds_a = Array.of_list kinds in
  let mix = balanced rng n in
  let gaps = poisson_gaps rng ~rate ~n in
  let c = connect d in
  let answers = Array.make n None in
  let done_at = Array.make n infinity in
  let received = Atomic.make 0 in
  let receiver_done = Atomic.make false in
  let receiver =
    Thread.create
      (fun () ->
        let rec loop () =
          if Atomic.get received < n then
            match Fbb_serve.Client.recv c with
            | Error _ -> Atomic.set receiver_done true
            | Ok r ->
              (match index_of_id (P.response_id r) with
              | Some i when i >= 0 && i < n ->
                done_at.(i) <- now ();
                answers.(i) <- Some r
              | _ -> ());
              Atomic.incr received;
              loop ()
        in
        loop ())
      ()
  in
  let t0 = now () +. 0.02 in
  let due = Array.make n t0 in
  let lag = Array.make n 0.0 in
  let backlog_max = ref 0 in
  let sent_ok = ref true in
  let offset = ref 0.0 in
  for i = 0 to n - 1 do
    offset := !offset +. gaps.(i);
    due.(i) <- t0 +. !offset;
    let wait = due.(i) -. now () in
    if wait > 0.0 then Unix.sleepf wait;
    lag.(i) <- (now () -. due.(i)) *. 1000.0;
    backlog_max := max !backlog_max (i - Atomic.get received);
    if !sent_ok then
      match
        Fbb_serve.Client.send c
          (request ~id:(Printf.sprintf "%s-%d" label i) kinds_a.(mix.(i)))
      with
      | Ok () -> ()
      | Error msg ->
        sent_ok := false;
        fail "%s: send: %s" label msg
  done;
  let give_up = now () +. timeout_s in
  while Atomic.get received < n && (not (Atomic.get receiver_done)) && now () < give_up do
    Unix.sleepf 0.005
  done;
  if Atomic.get received < n then begin
    fail "%s: %d of %d requests unanswered" label (n - Atomic.get received) n;
    (* Killing the daemon closes the connection, which ends the receiver. *)
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ())
  end;
  Thread.join receiver;
  let wall_s = now () -. t0 in
  Fbb_serve.Client.close c;
  {
    label;
    sent = Array.init n (fun i -> (mix.(i), answers.(i)));
    latency_ms = Array.init n (fun i -> (done_at.(i) -. due.(i)) *. 1000.0);
    done_at;
    started = t0;
    lag_ms = lag;
    backlog_max = !backlog_max;
    wall_s;
  }

(* Closed loop over [connections] connections, one thread each; a
   request's latency runs from its send to its answer. *)
let closed_loop d ~rng ~label ~n =
  let kinds_a = Array.of_list kinds in
  let mix = balanced rng n in
  let answers = Array.make n None in
  let latency_ms = Array.make n infinity in
  let done_at = Array.make n infinity in
  let t0 = now () in
  let worker w () =
    let c = connect d in
    let i = ref w in
    while !i < n do
      let sent = now () in
      (match
         Fbb_serve.Client.rpc c
           (request ~id:(Printf.sprintf "%s-%d" label !i) kinds_a.(mix.(!i)))
       with
      | Ok r ->
        done_at.(!i) <- now ();
        latency_ms.(!i) <- (done_at.(!i) -. sent) *. 1000.0;
        answers.(!i) <- Some r
      | Error _ -> ());
      i := !i + connections
    done;
    Fbb_serve.Client.close c
  in
  let threads = List.init connections (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  let wall_s = now () -. t0 in
  {
    label;
    sent = Array.init n (fun i -> (mix.(i), answers.(i)));
    latency_ms;
    done_at;
    started = t0;
    lag_ms = [||];
    backlog_max = 0;
    wall_s;
  }

let capacity_rps ph = float_of_int (Array.length ph.sent) /. ph.wall_s

(* A closed-loop phase cut into windows of [window] consecutive
   answers: each window's throughput and latencies. The gated figures
   are medians over all windows of a run, so a stall of the host that
   covers a few windows moves a few samples of the median, not the
   figure; a slower daemon is slower in every window. *)
let window = 100

let windows ph =
  let answered =
    List.filter
      (fun (d, _) -> Float.is_finite d)
      (Array.to_list (Array.map2 (fun d l -> (d, l)) ph.done_at ph.latency_ms))
  in
  let a = Array.of_list (List.sort compare answered) in
  List.init (Array.length a / window) (fun j ->
      let start = if j = 0 then ph.started else fst a.((j * window) - 1) in
      let stop = fst a.(((j + 1) * window) - 1) in
      (float_of_int window /. (stop -. start), Array.init window (fun i -> snd a.((j * window) + i))))

(* The median over the windows of several phases of [f] of a window. *)
let window_median f phs = median f (List.concat_map windows phs)

(* ----- output checks ----------------------------------------------------- *)

(* Problems rebuilt from the public workload definition, outside the
   timed phases: (problem, Single-BB leakage) per kind. *)
let reference =
  let memo = Hashtbl.create 8 in
  fun kind ->
    match Hashtbl.find_opt memo kind with
    | Some v -> v
    | None ->
      let w, beta, _ = kind in
      let pl =
        match w with
        | P.Generated { seed; gates; rows } ->
          Fbb_place.Placement.place ~target_rows:rows
            (Fbb_netlist.Generators.random_module ~seed ~gates ())
        | P.Benchmark name -> invalid_arg ("serve-open mixes generated netlists, not " ^ name)
      in
      let p = Fbb_core.Problem.build ~beta pl in
      let single =
        match Fbb_core.Heuristic.pass_one p with
        | Some j ->
          Fbb_core.Problem.total_leakage p
            ~levels:(Array.make (Fbb_core.Problem.num_rows p) j)
        | None -> nan
      in
      Hashtbl.replace memo kind (p, single);
      (p, single)

(* Check every answer of a phase; returns the leakage savings and the
   accepting stages of the answers that passed. *)
let check_phase ph =
  let kinds_a = Array.of_list kinds in
  Array.to_list ph.sent
  |> List.filter_map (fun (k, answer) ->
         attempt ();
         let kind = kinds_a.(k) in
         let name = kind_key kind in
         match answer with
         | Some (P.Solved { levels; leakage_nw; optimal; stage; _ }) ->
           let p, single = reference kind in
           let _, _, c = kind in
           let recomputed = Fbb_core.Problem.total_leakage p ~levels in
           if not (Fbb_core.Cascade.verify p ~max_clusters:c levels) then (
             fail "%s %s: assignment fails Cascade.verify" ph.label name;
             None)
           else if not (close recomputed leakage_nw) then (
             fail "%s %s: leakage %.17g <> recomputed %.17g" ph.label name
               leakage_nw recomputed;
             None)
           else if
             optimal
             &&
             match List.assoc_opt name Expected.serve_optima with
             | Some opt -> not (close opt leakage_nw)
             | None -> true
           then (
             fail "%s %s: optimal leakage %.17g differs from the stored optimum"
               ph.label name leakage_nw;
             None)
           else Some (Stats.ratio_pct single leakage_nw, stage)
         | Some r ->
           fail "%s %s: %s" ph.label name (P.encode_response r);
           None
         | None ->
           fail "%s %s: no answer" ph.label name;
           None)

(* Over the sends whose latencies are reported together: all rounds of
   one open-loop phase. *)
let check_lag ~label phs =
  attempt ();
  let p90 = Stats.percentile (Array.concat (List.map (fun ph -> ph.lag_ms) phs)) 90.0 in
  if p90 > max_lag_p90_ms then
    fail "%s phases invalid: generator lag p90 %.2f ms > %.1f ms" label p90 max_lag_p90_ms

(* ----- telemetry (traced runs) ------------------------------------------- *)

(* A telemetry page of the traced daemon, as JSON; a failed fetch is a
   failed check. *)
let http_json ~port path =
  match Fbb_obs.Telemetry.http_get (Printf.sprintf "http://127.0.0.1:%d%s" port path) with
  | Ok body -> J.parse body
  | Error msg ->
    attempt ();
    fail "telemetry: %s" msg;
    J.Null

let snapshot_counters ~port =
  match J.member_obj "counters" (http_json ~port "/snapshot.json") with
  | Some l -> List.map (fun (k, v) -> (k, int_of_float (Option.value ~default:0.0 (J.to_num v)))) l
  | None -> []

(* Flight records of one phase: per-layer self time summed into [tbl];
   returns (queue wait, latency) in ms of each of the phase's requests. *)
let flight_phase ~port ~label tbl =
  let index = http_json ~port "/requests" in
  let entries = Option.value ~default:[] (J.member_arr "requests" index) in
  let prefix = label ^ "-" in
  List.filter_map
    (fun e ->
      match (J.member_str "id" e, J.member_str "trace" e) with
      | Some id, Some trace when String.starts_with ~prefix id ->
        let record = http_json ~port (Printf.sprintf "/request/%s.json" trace) in
        Layers.add_flight_spans tbl
          (Option.value ~default:[] (J.member_arr "spans" record));
        Option.bind (J.member_num "queue_wait_ms" e) (fun q ->
            Option.map (fun l -> (q, l)) (J.member_num "latency_ms" e))
      | _ -> None)
    entries

let gc_totals err =
  let find key =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] when k = key -> float_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' (Buffer.contents err))
  in
  (Option.value ~default:0.0 (find "minor_words"),
   Option.value ~default:0.0 (find "major_collections"))

(* ----- the workload ------------------------------------------------------ *)

(* A latency percentile over the answers of several phases together. *)
let pctl phs p = Stats.percentile (Array.concat (List.map (fun ph -> ph.latency_ms) phs)) p

let setup_reps = 9

(* The daemon's pool is one domain wide: the load generator keeps the
   second core, so its own scheduling does not leak into the latencies. *)
let daemon_jobs = 1

let run ~fbbd ~seed ~seconds ~trace =
  let jobs = daemon_jobs in
  let rng = Fbb_util.Rng.create ~seed in
  let light_n = phase_n ~seconds 0.2 light_rps in
  let heavy_n = phase_n ~seconds 0.1 heavy_rps in
  let capacity_n = phase_n ~seconds 0.6 capacity_rps_nominal in
  if not trace then begin
    (* Every daemon but the last is stopped once it is set up. *)
    let d, setups =
      let rec go i times =
        let d, s = setup ~fbbd ~jobs ~traced:false in
        if i + 1 < setup_reps then (stop d; go (i + 1) (s :: times)) else (d, s :: times)
      in
      go 0 []
    in
    let phases =
      List.init rounds (fun r ->
          let label p = Printf.sprintf "%s%d" p r in
          let light = open_loop d ~rng ~label:(label "light") ~rate:light_rps ~n:light_n in
          let heavy = open_loop d ~rng ~label:(label "heavy") ~rate:heavy_rps ~n:heavy_n in
          let cap = closed_loop d ~rng ~label:(label "capacity") ~n:capacity_n in
          (light, heavy, cap))
    in
    let rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
    stop d;
    let lights = List.map (fun (l, _, _) -> l) phases in
    let heavies = List.map (fun (_, h, _) -> h) phases in
    let caps = List.map (fun (_, _, c) -> c) phases in
    let solved = List.concat_map check_phase (lights @ heavies @ caps) in
    check_lag ~label:"light" lights;
    check_lag ~label:"heavy" heavies;
    let lags = Array.concat (List.map (fun ph -> ph.lag_ms) (lights @ heavies)) in
    [
      metric ~samples:setup_reps "setup_s" "s" (median Fun.id setups);
      metric ~samples:(rounds * capacity_n) "answers_per_s" "1/s" (window_median fst caps);
      metric ~samples:(rounds * capacity_n) "answer_p50_ms" "ms"
        (window_median (fun (_, l) -> Stats.percentile l 50.0) caps);
      metric ~samples:(List.length solved) "leak_saved_pct" "%"
        (Stats.mean (Array.of_list (List.sort compare (List.map fst solved))));
      metric "peak_rss_mb" "MB" rss;
    ],
    (* Printed, not gated: the closed-loop p90 and the open-loop
       latencies, timed from each request's due time. The host's slow
       spells move them by up to 2x (see NOTES.md). *)
    [
      metric ~samples:(rounds * capacity_n) "answer_p90_ms" "ms"
        (window_median (fun (_, l) -> Stats.percentile l 90.0) caps);
      metric ~samples:(rounds * light_n) "light_p50_ms" "ms" (pctl lights 50.0);
      metric ~samples:(rounds * light_n) "light_p90_ms" "ms" (pctl lights 90.0);
      metric ~samples:(rounds * heavy_n) "heavy_p50_ms" "ms" (pctl heavies 50.0);
      metric ~samples:(rounds * heavy_n) "heavy_p90_ms" "ms" (pctl heavies 90.0);
      metric ~samples:(Array.length lags) "gen.lag_p90_ms" "ms" (Stats.percentile lags 90.0);
      metric "gen.backlog_max" "count"
        (float_of_int
           (List.fold_left (fun acc ph -> max acc ph.backlog_max) 0 (lights @ heavies)));
    ]
  end
  else begin
    (* Untraced capacity first, as the overhead's base. *)
    let d0, _ = setup ~fbbd ~jobs ~traced:false in
    let base = closed_loop d0 ~rng:(Fbb_util.Rng.create ~seed) ~label:"capacity" ~n:capacity_n in
    stop d0;
    let d, _ = setup ~fbbd ~jobs ~traced:true in
    let mport = Option.get d.metrics_port in
    let tbl = Hashtbl.create 16 in
    let before = snapshot_counters ~port:mport in
    let light = open_loop d ~rng ~label:"light" ~rate:light_rps ~n:light_n in
    let light_f = flight_phase ~port:mport ~label:"light" tbl in
    let heavy = open_loop d ~rng ~label:"heavy" ~rate:heavy_rps ~n:heavy_n in
    let heavy_f = flight_phase ~port:mport ~label:"heavy" tbl in
    let cap =
      closed_loop d ~rng:(Fbb_util.Rng.create ~seed) ~label:"capacity" ~n:capacity_n
    in
    let cap_f = flight_phase ~port:mport ~label:"capacity" tbl in
    let queue = Array.of_list (List.map fst heavy_f) in
    let service_s =
      List.fold_left (fun acc (q, l) -> acc +. ((l -. q) /. 1000.0)) 0.0
        (light_f @ heavy_f @ cap_f)
    in
    let spans_s = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0 in
    let after = snapshot_counters ~port:mport in
    stop d;
    let solved = List.concat_map check_phase [ base; light; heavy; cap ] in
    check_lag ~label:"light" [ light ];
    check_lag ~label:"heavy" [ heavy ];
    let get = counters_delta ~before ~after in
    let f n = float_of_int (get n) in
    let minor_words, major = gc_totals d.err in
    let ilp_share =
      ratio
        (float_of_int (List.length (List.filter (fun (_, s) -> s = "ilp") solved)))
        (float_of_int (List.length solved))
    in
    let self l = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
    let lags = Array.append light.lag_ms heavy.lag_ms in
    Layers.metrics
      (Layers.of_counters get @ Layers.of_self self
      @ [
          ("problem.build_s", self "problem");
          ("cascade.ilp_accept_share", ilp_share);
          ("serve.queue_p50_ms", Stats.percentile queue 50.0);
          ("serve.queue_p90_ms", Stats.percentile queue 90.0);
          (* Requests per dispatch; a lone request is a batch of one. *)
          ("serve.batch_mean", ratio (f "serve.solved") (f "serve.solved" -. f "serve.batched"));
          ( "serve.prepared_hit_ratio",
            ratio (f "serve.prepared_hits") (f "serve.prepared_hits" +. f "serve.prepares") );
          ( "serve.shed",
            f "serve.shed.overload" +. f "serve.shed.draining" +. f "serve.tenant.shed" );
          (* Time per request, traced against untraced. *)
          ( "obs.trace_overhead_pct",
            overhead_pct ~untraced:(1.0 /. capacity_rps base) ~traced:(1.0 /. capacity_rps cap) );
          ("gc.minor_mw", minor_words /. 1e6);
          ("gc.major_collections", major);
          ("gen.lag_p90_ms", Stats.percentile lags 90.0);
          ("unattributed_s", service_s -. spans_s);
          ("gen.backlog_max", float_of_int (max light.backlog_max heavy.backlog_max));
        ]),
    []
  end

(* The stored optima: every kind solved alone on a fresh daemon. *)
let record_optima ~fbbd =
  let d, _ = setup ~fbbd ~jobs:daemon_jobs ~traced:false in
  let c = connect d in
  let rows =
    List.filter_map
      (fun kind ->
        match Fbb_serve.Client.rpc c (request ~id:"record-0" kind) with
        | Ok (P.Solved { leakage_nw; optimal = true; _ }) -> Some (kind_key kind, leakage_nw)
        | _ -> None)
      kinds
  in
  Fbb_serve.Client.close c;
  stop d;
  rows
