(* Extension experiment: the fbbd serving axis. Stand up an in-process
   server on an ephemeral port, drive it with the deterministic
   closed-loop load generator (fixed seed, work-budgeted requests over
   a two-netlist mix so the same-key batcher actually batches), and
   report throughput and latency percentiles. The harness wraps this
   in the gated [exp.serve] span, and the per-request [serve.request]
   span statistics (p50/p90/p99) ride into bench.json's span section,
   so a serving-latency regression shows up in bench-compare next to
   the solver timings.

   FBB_SERVE_REQUESTS (default 48) scales the script length; the
   request script is a pure function of (seed, connections, requests),
   so records are comparable only at equal counts.

   A second pair of phases times daemon start through the first
   Solved answer against a persistent context store:
   [exp.serve-restart-cold] starts on an empty store (prepare + spill
   + solve), [exp.serve-restart-warm] restarts against the now
   populated store (load + solve). Both include a C=4 solve under a
   2,000-tick work budget on a 2,000-gate module, which takes most of
   each phase, so the pair does not isolate preparation: the warm run
   saves only the prepare, about 0.1 s of roughly 0.9 s. The
   preparation-only comparison (scratch prepare vs store load +
   unmarshal) is in EXPERIMENTS.md. *)

module T = Fbb_util.Texttab

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* One daemon lifetime against [dir]: start, solve once, stop. The
   [exp.*] span covers bind through first [Solved] only — shutdown is
   not part of the restart metric. Returns the span's wall time. *)
let restart_once ~span ~dir =
  let config =
    {
      Fbb_serve.Server.default_config with
      port = 0;
      store_dir = Some dir;
    }
  in
  let t0 = Fbb_obs.Clock.now_s () in
  let server =
    Fbb_obs.Span.with_ ~name:span @@ fun () ->
    match Fbb_serve.Server.start ~config () with
    | Error msg -> Error msg
    | Ok server -> (
      let solve () =
        match
          Fbb_serve.Client.connect ~port:(Fbb_serve.Server.port server) ()
        with
        | Error msg -> Error msg
        | Ok client ->
          Fun.protect ~finally:(fun () -> Fbb_serve.Client.close client)
          @@ fun () ->
          Fbb_serve.Client.rpc client
            (Fbb_serve.Protocol.Solve
               {
                 id = "restart";
                 client = None;
                 workload =
                   Fbb_serve.Protocol.Generated
                     { seed = 11; gates = 2_000; rows = 3 };
                 beta = 0.05;
                 max_clusters = 4;
                 deadline_ms = None;
                 (* Both runs pay this solve equally; only the
                    preparation differs between them. *)
                 work_budget = Some 2_000;
               })
      in
      match solve () with
      | Ok (Fbb_serve.Protocol.Solved _) -> Ok server
      | Ok r ->
        Fbb_serve.Server.stop server;
        Error
          ("unexpected restart response: "
          ^ Fbb_serve.Protocol.encode_response r)
      | Error msg ->
        Fbb_serve.Server.stop server;
        Error msg)
  in
  let elapsed_ms = (Fbb_obs.Clock.now_s () -. t0) *. 1000.0 in
  Result.map
    (fun server ->
      Fbb_serve.Server.stop server;
      elapsed_ms)
    server

let run () =
  let requests = Exp_common.env_int "FBB_SERVE_REQUESTS" 48 in
  Exp_common.header
    (Printf.sprintf "Extension - fbbd serving axis (%d requests)" requests);
  let config =
    { Fbb_serve.Server.default_config with port = 0; queue_capacity = 256 }
  in
  match Fbb_serve.Server.start ~config () with
  | Error msg -> Printf.printf "serve: cannot start server: %s\n" msg
  | Ok server ->
    Fun.protect ~finally:(fun () -> Fbb_serve.Server.stop server) @@ fun () ->
    (* Record flights like the production daemon does — teed onto the
       harness's aggregate sink, so the gated [exp.serve] span keeps
       its statistics and prices the recorder's overhead too. *)
    Fbb_obs.Flight.clear ();
    let flight_sink =
      match Fbb_obs.Sink.installed () with
      | None -> Fbb_obs.Flight.sink ()
      | Some base -> Fbb_obs.Sink.tee base (Fbb_obs.Flight.sink ())
    in
    Fbb_obs.Sink.with_installed flight_sink @@ fun () ->
    let cfg =
      {
        (Fbb_serve.Loadgen.default ~port:(Fbb_serve.Server.port server)) with
        connections = 4;
        requests;
        seed = 2009;
        workloads =
          [
            Fbb_serve.Protocol.Generated { seed = 11; gates = 300; rows = 6 };
            Fbb_serve.Protocol.Generated { seed = 12; gates = 400; rows = 6 };
          ];
        work_budget = Some 20_000;
      }
    in
    (match Fbb_serve.Loadgen.run cfg with
    | Error msg -> Printf.printf "serve: loadgen: %s\n" msg
    | Ok r ->
      let tab =
        T.create
          ~headers:
            [
              "requests"; "solved"; "rejected"; "errors"; "req/s"; "p50 ms";
              "p90 ms"; "p99 ms"; "max ms";
            ]
      in
      T.add_row tab
        [
          string_of_int r.sent;
          string_of_int r.solved;
          string_of_int r.rejected;
          string_of_int r.errors;
          T.cell_f ~digits:1 r.throughput_rps;
          T.cell_f ~digits:1 r.p50_ms;
          T.cell_f ~digits:1 r.p90_ms;
          T.cell_f ~digits:1 r.p99_ms;
          T.cell_f ~digits:1 r.max_ms;
        ];
      T.print tab;
      print_endline
        "reading: closed-loop latency over 4 connections against the \n\
         in-process daemon - queue wait plus cascade service time; the \n\
         per-request span percentiles land in bench.json's span section.");
    (* Restart-to-first-Solved, cold store then warm store. *)
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fbb-bench-store-%d" (Unix.getpid ()))
    in
    rm_rf dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    match restart_once ~span:"exp.serve-restart-cold" ~dir with
    | Error msg -> Printf.printf "serve: restart (cold): %s\n" msg
    | Ok cold_ms -> (
      match restart_once ~span:"exp.serve-restart-warm" ~dir with
      | Error msg -> Printf.printf "serve: restart (warm): %s\n" msg
      | Ok warm_ms ->
        let tab =
          T.create ~headers:[ "restart"; "first Solved ms"; "vs cold" ]
        in
        T.add_row tab [ "cold store"; T.cell_f ~digits:1 cold_ms; "1.00x" ];
        T.add_row tab
          [
            "warm store";
            T.cell_f ~digits:1 warm_ms;
            Printf.sprintf "%.2fx" (warm_ms /. Float.max 1e-9 cold_ms);
          ];
        T.print tab;
        print_endline
          "reading: daemon start through first Solved response, solve \n\
           included; warm loads the prepared context from the persistent \n\
           store instead of rebuilding placement, delay caches and the \n\
           path set.")
