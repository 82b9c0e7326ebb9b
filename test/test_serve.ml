(* The fbbd protocol/load test battery: QCheck codec round-trips,
   adversarial frames (junk, truncated, oversized — always typed
   errors, never escaping exceptions), live-server protocol round-trips,
   admission control and load shedding, past-deadline anytime
   degradation, and the scripted replay helper the determinism suite
   runs at jobs 1 vs 4. *)

module P = Fbb_serve.Protocol
module Server = Fbb_serve.Server
module Client = Fbb_serve.Client

let at_jobs n f =
  let prev = Fbb_par.Pool.jobs () in
  Fbb_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Fbb_par.Pool.set_jobs prev) f

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let with_server ?config f =
  let config =
    match config with
    | Some c -> c
    | None -> { Server.default_config with port = 0 }
  in
  match Server.start ~config () with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv -> Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client srv f =
  let c = ok (Client.connect ~port:(Server.port srv) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Small generated workloads keep every live-server test fast; two
   distinct keys exercise the batcher's same-netlist grouping. *)
let wl_a = P.Generated { seed = 5; gates = 80; rows = 3 }
let wl_b = P.Generated { seed = 6; gates = 64; rows = 3 }

let solve ?(beta = 0.05) ?(clusters = 3) ?deadline_ms ?work ?client id
    workload =
  P.Solve
    {
      id;
      client;
      workload;
      beta;
      max_clusters = clusters;
      deadline_ms;
      work_budget = work;
    }

(* ----- QCheck codec round-trips ----------------------------------------- *)

(* JSON has no inf/nan, so round-trip floats are finite by
   construction: dyadic rationals n/16 survive both directions bit
   for bit. *)
let gen_finite =
  QCheck.Gen.map
    (fun n -> float_of_int n /. 16.0)
    (QCheck.Gen.int_range (-1_000_000_000) 1_000_000_000)

let gen_id =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (Printf.sprintf "req-%d") QCheck.Gen.nat;
      QCheck.Gen.oneofl [ ""; "a b"; "quote\"back\\slash"; "tab\there" ];
    ]

let gen_workload =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (Printf.sprintf "c%d") QCheck.Gen.nat
      |> QCheck.Gen.map (fun n -> P.Benchmark n);
      QCheck.Gen.map3
        (fun seed gates rows -> P.Generated { seed; gates; rows })
        QCheck.Gen.nat QCheck.Gen.nat QCheck.Gen.nat;
    ]

let gen_request =
  let open QCheck.Gen in
  let gen_solve =
    gen_id >>= fun id ->
    option gen_id >>= fun client ->
    gen_workload >>= fun workload ->
    gen_finite >>= fun beta ->
    nat >>= fun max_clusters ->
    option gen_finite >>= fun deadline_ms ->
    option nat >>= fun work_budget ->
    return
      (P.Solve
         { id; client; workload; beta; max_clusters; deadline_ms; work_budget })
  in
  oneof
    [
      gen_solve;
      map (fun id -> P.Ping { id }) gen_id;
      map (fun id -> P.Stats { id }) gen_id;
    ]

let gen_attempt =
  let open QCheck.Gen in
  oneofl [ "ilp"; "heuristic"; "single_bb" ] >>= fun stage ->
  oneofl [ "accepted"; "rejected"; "exhausted"; "crashed: boom" ]
  >>= fun status ->
  option gen_finite >>= fun leakage_nw ->
  nat >>= fun work -> return { P.stage; status; leakage_nw; work }

let gen_reject =
  let open QCheck.Gen in
  oneof
    [
      map (fun retry_after_ms -> P.Overload { retry_after_ms }) gen_finite;
      return P.Shutting_down;
      map (fun m -> P.Bad_request m) gen_id;
      map (fun m -> P.Faulted m) gen_id;
    ]

let gen_response =
  let open QCheck.Gen in
  let gen_solved =
    gen_id >>= fun id ->
    oneofl [ "ilp"; "heuristic"; "single_bb" ] >>= fun stage ->
    array_size (0 -- 8) (0 -- 10) >>= fun levels ->
    gen_finite >>= fun leakage_nw ->
    option gen_finite >>= fun gap_pct ->
    bool >>= fun optimal ->
    bool >>= fun exhausted ->
    list_size (0 -- 3) gen_attempt >>= fun attempts ->
    gen_finite >>= fun elapsed_ms ->
    return
      (P.Solved
         {
           id;
           stage;
           levels;
           leakage_nw;
           gap_pct;
           optimal;
           exhausted;
           attempts;
           elapsed_ms;
         })
  in
  oneof
    [
      gen_solved;
      map2
        (fun id elapsed_ms -> P.Infeasible { id; elapsed_ms })
        gen_id gen_finite;
      map2 (fun id reject -> P.Rejected { id; reject }) gen_id gen_reject;
      map (fun id -> P.Pong { id }) gen_id;
      (gen_id >>= fun id ->
       nat >>= fun queue_depth ->
       nat >>= fun in_flight ->
       nat >>= fun served ->
       nat >>= fun shed ->
       bool >>= fun draining ->
       option gen_finite >>= fun queue_p50_ms ->
       option gen_finite >>= fun queue_p90_ms ->
       option gen_finite >>= fun queue_p99_ms ->
       return
         (P.Stats_reply
            {
              id;
              stats =
                {
                  queue_depth;
                  in_flight;
                  served;
                  shed;
                  draining;
                  queue_p50_ms;
                  queue_p90_ms;
                  queue_p99_ms;
                };
            }));
    ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"request round-trip is exact" ~count:300
      (make ~print:P.encode_request gen_request)
      (fun r -> P.decode_request (P.encode_request r) = Ok r);
    Test.make ~name:"response round-trip is exact" ~count:300
      (make ~print:P.encode_response gen_response)
      (fun r -> P.decode_response (P.encode_response r) = Ok r);
    Test.make ~name:"junk never escapes as an exception" ~count:500
      (string_of_size (Gen.int_range 0 200))
      (fun s ->
        (match P.decode_request s with Ok _ | Error _ -> true)
        && match P.decode_response s with Ok _ | Error _ -> true);
  ]

(* ----- adversarial parses ----------------------------------------------- *)

let test_adversarial_parses () =
  let cases =
    [
      "";
      "{";
      "[";
      "null";
      "42";
      "\"solve\"";
      "{\"op\":}";
      "{\"id\":\"x\"}";
      "{\"op\":\"zap\",\"id\":\"x\"}";
      "{\"op\":\"solve\",\"id\":\"x\"}";
      "{\"op\":\"solve\",\"id\":\"x\",\"design\":7,\"beta\":0.05,\"clusters\":2}";
      "{\"op\":\"solve\",\"id\":\"x\",\"design\":\"c17\",\"beta\":\"hot\",\
       \"clusters\":2}";
      "{\"op\":\"solve\",\"id\":\"x\",\"design\":\"c17\",\"beta\":0.05,\
       \"clusters\":2.5}";
      "{\"op\":\"solve\",\"id\":\"x\",\"design\":\"c17\",\"beta\":0.05,\
       \"clusters\":1e30}";
      "{\"op\":\"solve\",\"id\":\"x\",\"design\":\"c17\",\"gen\":{\"seed\":1,\
       \"gates\":9,\"rows\":2},\"beta\":0.05,\"clusters\":2}";
      "{\"op\":\"solve\",\"id\":\"x\",\"gen\":{\"seed\":1},\"beta\":0.05,\
       \"clusters\":2}";
      "{\"op\":\"solve\",\"id\":\"x\",\"client\":7,\"design\":\"c17\",\
       \"beta\":0.05,\"clusters\":2}";
      "{\"op\":\"solve\",\"id\":\"x\",\"client\":null,\"design\":\"c17\",\
       \"beta\":0.05,\"clusters\":2}";
      String.make 4096 '{';
    ]
  in
  List.iter
    (fun s ->
      match P.decode_request s with
      | Ok r ->
        Alcotest.failf "junk decoded as a request: %s" (P.encode_request r)
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "decode raised %s on %S" (Printexc.to_string e) s)
    cases;
  (* Response-side statuses are a distinct keyspace. *)
  (match P.decode_response "{\"id\":\"x\",\"status\":\"victory\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown status decoded");
  match P.decode_response "{\"id\":\"x\",\"status\":\"rejected\",\"reason\":\"??\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown reject reason decoded"

(* ----- bounded frame reading -------------------------------------------- *)

let with_pipe f =
  let rfd, wfd = Unix.pipe () in
  let closed = ref false in
  let close_w () =
    if not !closed then begin
      closed := true;
      Unix.close wfd
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_w ();
      Unix.close rfd)
    (fun () -> f rfd wfd close_w)

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let test_frame_reading () =
  (* Split frames reassemble; a clean close is Closed. *)
  with_pipe (fun rfd wfd close_w ->
      let r = P.reader rfd in
      write_all wfd "ab";
      write_all wfd "cd\nef\n";
      Alcotest.(check bool) "split frame reassembled" true
        (P.read_frame r = Ok "abcd");
      Alcotest.(check bool) "second frame" true (P.read_frame r = Ok "ef");
      close_w ();
      Alcotest.(check bool) "clean close" true (P.read_frame r = Error P.Closed));
  (* EOF mid-line is Truncated, and sticks. *)
  with_pipe (fun rfd wfd close_w ->
      let r = P.reader rfd in
      write_all wfd "dangling";
      close_w ();
      Alcotest.(check bool) "truncated" true (P.read_frame r = Error P.Truncated);
      Alcotest.(check bool) "truncated sticks" true
        (P.read_frame r = Error P.Truncated));
  (* An over-long line is Oversized whether or not the newline ever
     arrives. *)
  with_pipe (fun rfd wfd _ ->
      let r = P.reader ~max_frame:16 rfd in
      write_all wfd (String.make 64 'a');
      Alcotest.(check bool) "oversized without newline" true
        (P.read_frame r = Error (P.Oversized 16)));
  with_pipe (fun rfd wfd _ ->
      let r = P.reader ~max_frame:16 rfd in
      write_all wfd (String.make 32 'a' ^ "\nok\n");
      Alcotest.(check bool) "oversized with newline" true
        (P.read_frame r = Error (P.Oversized 16)))

(* ----- live server: protocol round-trip --------------------------------- *)

let test_server_roundtrip () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  (match ok (Client.rpc c (P.Ping { id = "p1" })) with
  | P.Pong { id } -> Alcotest.(check string) "pong id" "p1" id
  | r -> Alcotest.failf "expected pong, got %s" (P.encode_response r));
  (match ok (Client.rpc c (solve "s1" wl_a ~work:5_000)) with
  | P.Solved { id; levels; attempts; _ } ->
    Alcotest.(check string) "solved id" "s1" id;
    Alcotest.(check bool) "levels cover the rows" true
      (Array.length levels > 0);
    Alcotest.(check bool) "attempt trace present" true (attempts <> [])
  | r -> Alcotest.failf "expected solved, got %s" (P.encode_response r));
  match ok (Client.rpc c (P.Stats { id = "st" })) with
  | P.Stats_reply { stats; _ } ->
    Alcotest.(check int) "one solve served" 1 stats.P.served;
    Alcotest.(check bool) "not draining" false stats.P.draining
  | r -> Alcotest.failf "expected stats, got %s" (P.encode_response r)

let test_server_junk_degrades () =
  with_server @@ fun srv ->
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
  @@ fun () ->
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let r = P.reader sock in
  ok (P.write_frame sock "this is not json");
  (match P.read_frame r with
  | Ok line -> (
    match P.decode_response line with
    | Ok (P.Rejected { reject = P.Bad_request _; _ }) -> ()
    | Ok resp ->
      Alcotest.failf "expected bad_request, got %s" (P.encode_response resp)
    | Error m -> Alcotest.failf "undecodable response: %s" m)
  | Error e -> Alcotest.failf "read: %s" (P.read_error_to_string e));
  (* The connection survives junk: a well-formed ping still answers. *)
  ok (P.write_frame sock (P.encode_request (P.Ping { id = "after" })));
  (match P.read_frame r with
  | Ok line ->
    Alcotest.(check bool) "pong after junk" true
      (P.decode_response line = Ok (P.Pong { id = "after" }))
  | Error e -> Alcotest.failf "read: %s" (P.read_error_to_string e))

let test_server_oversized_closes () =
  let config =
    { Server.default_config with port = 0; max_frame = 1024 }
  in
  with_server ~config @@ fun srv ->
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
  @@ fun () ->
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let r = P.reader sock in
  ok (P.write_frame sock (String.make 2048 'x'));
  (match P.read_frame r with
  | Ok line -> (
    match P.decode_response line with
    | Ok (P.Rejected { reject = P.Bad_request _; _ }) -> ()
    | Ok resp ->
      Alcotest.failf "expected bad_request, got %s" (P.encode_response resp)
    | Error m -> Alcotest.failf "undecodable response: %s" m)
  | Error e -> Alcotest.failf "read: %s" (P.read_error_to_string e));
  (* Line framing cannot resynchronize after an oversized frame, so the
     server closes: the next read is EOF, never a hang or a crash. *)
  match P.read_frame r with
  | Error (P.Closed | P.Truncated) -> ()
  | Ok line -> Alcotest.failf "expected close, got frame %S" line
  | Error e -> Alcotest.failf "expected close, got %s" (P.read_error_to_string e)

let test_server_truncated_answered () =
  with_server @@ fun srv ->
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
  @@ fun () ->
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  (* Half a frame, then EOF on the write side: the server answers the
     truncation with a typed reject before hanging up. *)
  write_all sock "{\"op\":\"ping\",\"id\":";
  Unix.shutdown sock Unix.SHUTDOWN_SEND;
  let r = P.reader sock in
  match P.read_frame r with
  | Ok line -> (
    match P.decode_response line with
    | Ok (P.Rejected { reject = P.Bad_request _; _ }) -> ()
    | Ok resp ->
      Alcotest.failf "expected bad_request, got %s" (P.encode_response resp)
    | Error m -> Alcotest.failf "undecodable response: %s" m)
  | Error e -> Alcotest.failf "read: %s" (P.read_error_to_string e)

(* ----- admission control ------------------------------------------------ *)

let test_capacity_zero_sheds_everything () =
  let config = { Server.default_config with port = 0; queue_capacity = 0 } in
  with_server ~config @@ fun srv ->
  with_client srv @@ fun c ->
  (match ok (Client.rpc c (solve "z1" wl_a ~work:100)) with
  | P.Rejected { id; reject = P.Overload { retry_after_ms } } ->
    Alcotest.(check string) "shed id echoed" "z1" id;
    Alcotest.(check bool) "retry-after positive" true (retry_after_ms > 0.0)
  | r -> Alcotest.failf "expected overload, got %s" (P.encode_response r));
  (* Ping and stats bypass admission entirely. *)
  (match ok (Client.rpc c (P.Ping { id = "p" })) with
  | P.Pong _ -> ()
  | r -> Alcotest.failf "expected pong, got %s" (P.encode_response r));
  match ok (Client.rpc c (P.Stats { id = "st" })) with
  | P.Stats_reply { stats; _ } ->
    Alcotest.(check int) "one shed counted" 1 stats.P.shed
  | r -> Alcotest.failf "expected stats, got %s" (P.encode_response r)

let test_flood_sheds_and_recovers () =
  (* Queue of 2 + one in-flight batch against a pipelined burst of 12:
     some requests must shed with a typed overload, every request gets
     exactly one response, and the server serves normally afterwards. *)
  let config =
    {
      Server.default_config with
      port = 0;
      queue_capacity = 2;
      batch_max = 1;
    }
  in
  with_server ~config @@ fun srv ->
  with_client srv @@ fun c ->
  let n = 12 in
  for i = 1 to n do
    ok
      (Client.send c (solve (Printf.sprintf "f%d" i) wl_a ~work:20_000))
  done;
  let solved = ref 0 and overload = ref 0 and other = ref 0 in
  for _ = 1 to n do
    match ok (Client.recv c) with
    | P.Solved _ -> incr solved
    | P.Rejected { reject = P.Overload { retry_after_ms }; _ } ->
      Alcotest.(check bool) "retry-after positive" true (retry_after_ms > 0.0);
      incr overload
    | r -> Alcotest.failf "unexpected response %s" (P.encode_response r)
  done;
  Alcotest.(check int) "every request answered" n (!solved + !overload + !other);
  Alcotest.(check bool) "burst overflowed the queue" true (!overload > 0);
  (* At least the queue's capacity worth of requests was admitted;
     how many more depends on how fast the solver drains. *)
  Alcotest.(check bool) "queue depth still served" true (!solved >= 2);
  (* Recovered: a fresh request sails through. *)
  match ok (Client.rpc c (solve "after" wl_a ~work:5_000)) with
  | P.Solved _ -> ()
  | r -> Alcotest.failf "expected solved after flood, got %s"
           (P.encode_response r)

let test_drain_sheds_with_shutting_down () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  (match ok (Client.rpc c (solve "pre" wl_a ~work:2_000)) with
  | P.Solved _ -> ()
  | r -> Alcotest.failf "expected solved, got %s" (P.encode_response r));
  Server.drain srv;
  (match ok (Client.rpc c (solve "post" wl_a ~work:2_000)) with
  | P.Rejected { id = "post"; reject = P.Shutting_down } -> ()
  | r -> Alcotest.failf "expected shutting_down, got %s" (P.encode_response r));
  (* Ping/stats still answer on a draining server. *)
  match ok (Client.rpc c (P.Stats { id = "st" })) with
  | P.Stats_reply { stats; _ } ->
    Alcotest.(check bool) "draining reported" true stats.P.draining
  | r -> Alcotest.failf "expected stats, got %s" (P.encode_response r)

let test_bad_parameters_rejected () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  let expect_bad id req =
    match ok (Client.rpc c req) with
    | P.Rejected { id = rid; reject = P.Bad_request _ } ->
      Alcotest.(check string) "id echoed" id rid
    | r -> Alcotest.failf "expected bad_request, got %s" (P.encode_response r)
  in
  expect_bad "b1" (solve "b1" wl_a ~beta:0.0 ~work:100);
  expect_bad "b2" (solve "b2" wl_a ~clusters:0 ~work:100);
  expect_bad "b3" (solve "b3" (P.Benchmark "no-such-design") ~work:100);
  expect_bad "b4"
    (solve "b4" (P.Generated { seed = 1; gates = 2; rows = 2 }) ~work:100);
  expect_bad "b5" (solve "b5" wl_a ~deadline_ms:(-5.0) ~work:100)

(* ----- connection hygiene ----------------------------------------------- *)

let test_idle_timeout_read_error () =
  (* A reader on a socket with a receive deadline surfaces SO_RCVTIMEO
     expiry as the typed Idle_timeout — and the reader stays usable:
     buffered partial input completes once the peer resumes. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_float a Unix.SO_RCVTIMEO 0.05;
  let r = P.reader a in
  Alcotest.(check bool) "silence is idle_timeout" true
    (P.read_frame r = Error P.Idle_timeout);
  write_all b "partial";
  Alcotest.(check bool) "half a frame is still idle_timeout" true
    (P.read_frame r = Error P.Idle_timeout);
  write_all b " frame\n";
  Alcotest.(check bool) "resumed peer completes the buffered frame" true
    (P.read_frame r = Ok "partial frame")

let test_idle_eviction () =
  (* A slow-loris peer — half a frame, then silence — is evicted with a
     typed reject and a close; a prompt peer on the same server is
     untouched. *)
  let config =
    { Server.default_config with port = 0; idle_timeout_s = Some 0.2 }
  in
  with_server ~config @@ fun srv ->
  with_client srv (fun c ->
      match ok (Client.rpc c (P.Ping { id = "fast" })) with
      | P.Pong _ -> ()
      | r -> Alcotest.failf "expected pong, got %s" (P.encode_response r));
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
  @@ fun () ->
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  write_all sock "{\"op\":\"ping\",\"id\":";
  let r = P.reader sock in
  (match P.read_frame r with
  | Ok line -> (
    match P.decode_response line with
    | Ok (P.Rejected { reject = P.Bad_request reason; _ }) ->
      Alcotest.(check bool) "eviction names the idle timeout" true
        (String.length reason >= 4 && String.sub reason 0 4 = "idle")
    | Ok resp ->
      Alcotest.failf "expected bad_request, got %s" (P.encode_response resp)
    | Error m -> Alcotest.failf "undecodable response: %s" m)
  | Error e -> Alcotest.failf "read: %s" (P.read_error_to_string e));
  match P.read_frame r with
  | Error (P.Closed | P.Truncated) -> ()
  | Ok line -> Alcotest.failf "expected close after eviction, got %S" line
  | Error e ->
    Alcotest.failf "expected close, got %s" (P.read_error_to_string e)

(* ----- per-tenant fair admission ---------------------------------------- *)

let counter name = Fbb_obs.Counter.read (Fbb_obs.Counter.make name)

let test_tenant_starvation () =
  (* The 10:1 starvation mix: one tenant floods 40 pipelined requests,
     a quiet tenant issues a handful sequentially. The hot tenant's
     lane cap sheds its excess with typed overloads; the quiet tenant
     is never shed and every request is solved — the global queue is
     never monopolized. *)
  let config =
    {
      Server.default_config with
      port = 0;
      queue_capacity = 64;
      tenant_queue_cap = 4;
      batch_max = 2;
    }
  in
  with_server ~config @@ fun srv ->
  let tenant_shed0 = counter "serve.tenant.shed" in
  let hot = ok (Client.connect ~port:(Server.port srv) ()) in
  Fun.protect ~finally:(fun () -> Client.close hot) @@ fun () ->
  let n_hot = 40 in
  for i = 1 to n_hot do
    ok
      (Client.send hot
         (solve ~client:"hot" (Printf.sprintf "h%d" i) wl_a ~work:20_000))
  done;
  (* The quiet tenant runs while the flood is queued and being shed. *)
  with_client srv (fun quiet ->
      for i = 1 to 3 do
        match
          ok
            (Client.rpc quiet
               (solve ~client:"quiet" (Printf.sprintf "q%d" i) wl_b
                  ~work:20_000))
        with
        | P.Solved { id; _ } ->
          Alcotest.(check string) "quiet id echoed"
            (Printf.sprintf "q%d" i) id
        | r ->
          Alcotest.failf "quiet tenant starved or shed: %s"
            (P.encode_response r)
      done);
  let solved = ref 0 and overload = ref 0 in
  for _ = 1 to n_hot do
    match ok (Client.recv hot) with
    | P.Solved _ -> incr solved
    | P.Rejected { reject = P.Overload { retry_after_ms }; _ } ->
      Alcotest.(check bool) "retry-after positive" true (retry_after_ms > 0.0);
      incr overload
    | r -> Alcotest.failf "unexpected hot response %s" (P.encode_response r)
  done;
  Alcotest.(check int) "every hot request answered" n_hot
    (!solved + !overload);
  Alcotest.(check bool) "hot tenant absorbed the overloads" true
    (!overload > 0);
  Alcotest.(check bool) "hot lane cap (not the global queue) shed" true
    (counter "serve.tenant.shed" > tenant_shed0)

(* ----- client-side bounded retry ---------------------------------------- *)

let test_rpc_retry_bounded () =
  (* Against a capacity-0 server every attempt is shed: rpc_retry must
     make exactly retries+1 attempts, return the final typed overload,
     and respect a tiny budget by giving up instead of sleeping. *)
  let config = { Server.default_config with port = 0; queue_capacity = 0 } in
  with_server ~config @@ fun srv ->
  with_client srv @@ fun c ->
  let result, attempts =
    Client.rpc_retry ~retries:2 ~retry_budget_ms:10_000.0 ~seed:7 c
      (solve "rt" wl_a ~work:100)
  in
  (match ok result with
  | P.Rejected { reject = P.Overload _; _ } -> ()
  | r -> Alcotest.failf "expected overload, got %s" (P.encode_response r));
  Alcotest.(check int) "retries exhausted" 3 attempts;
  (* A zero budget refuses to sleep at all: one attempt. *)
  let _, attempts0 =
    Client.rpc_retry ~retries:5 ~retry_budget_ms:0.0 ~seed:7 c
      (solve "rt0" wl_a ~work:100)
  in
  Alcotest.(check int) "zero budget, one attempt" 1 attempts0;
  (* A server with room answers on the first attempt. *)
  with_server @@ fun srv2 ->
  with_client srv2 @@ fun c2 ->
  let result2, attempts2 =
    Client.rpc_retry ~retries:3 c2 (solve "ok1" wl_a ~work:2_000)
  in
  (match ok result2 with
  | P.Solved _ -> ()
  | r -> Alcotest.failf "expected solved, got %s" (P.encode_response r));
  Alcotest.(check int) "no retry needed" 1 attempts2

(* ----- past-deadline requests degrade to the anytime floor -------------- *)

let test_past_deadline_returns_incumbent () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  (* deadline_ms 0 is already expired at admission: the budget arrives
     at the solver exhausted, and the cascade's single-BB floor still
     returns a signed-off solution — never a timeout error, never a
     crash. *)
  match ok (Client.rpc c (solve "dl" wl_a ~deadline_ms:0.0)) with
  | P.Solved { id; exhausted; attempts; _ } ->
    Alcotest.(check string) "id echoed" "dl" id;
    Alcotest.(check bool) "budget reported exhausted" true exhausted;
    Alcotest.(check bool) "degradation trace present" true (attempts <> [])
  | r ->
    Alcotest.failf "expected anytime incumbent, got %s" (P.encode_response r)

(* ----- batching is an amortization, not a semantic ---------------------- *)

(* A fixed request script over two interleaved netlist keys with mixed
   work budgets (including an exhausted one). Payloads are canonicalized
   by zeroing the wall-clock [elapsed_ms] — everything else must be bit
   identical across batching regimes and pool widths. *)
let script =
  [
    solve "r01" wl_a ~work:5_000;
    solve "r02" wl_b ~work:5_000;
    solve "r03" wl_a ~work:800;
    solve "r04" wl_a ~work:5_000;
    solve "r05" wl_b ~work:0;
    solve "r06" wl_b ~work:5_000;
    solve "r07" wl_a ~work:800;
    solve "r08" wl_b ~work:5_000;
  ]

let canon = function
  | P.Solved r -> P.Solved { r with elapsed_ms = 0.0 }
  | P.Infeasible { id; _ } -> P.Infeasible { id; elapsed_ms = 0.0 }
  | r -> r

let run_script ~batch_max () =
  let config =
    {
      Server.default_config with
      port = 0;
      queue_capacity = 64;
      batch_max;
    }
  in
  with_server ~config @@ fun srv ->
  with_client srv @@ fun c ->
  List.iter (fun req -> ok (Client.send c req)) script;
  let responses =
    List.map (fun _ -> canon (ok (Client.recv c))) script
  in
  (* Batching reorders responses across keys; payloads are keyed by id. *)
  List.sort compare
    (List.map (fun r -> (P.response_id r, P.encode_response r)) responses)

let script_replay ~jobs () = at_jobs jobs (run_script ~batch_max:4)

let test_batching_preserves_payloads () =
  let solo = run_script ~batch_max:1 () in
  let batched = run_script ~batch_max:8 () in
  Alcotest.(check bool) "all requests answered" true
    (List.length solo = List.length script);
  Alcotest.(check bool) "every script id present" true
    (List.map fst solo
    = List.sort compare
        (List.filter_map
           (function P.Solve { id; _ } -> Some id | _ -> None)
           script));
  Alcotest.(check bool) "payloads identical batched vs solo" true
    (solo = batched)

let test_jobs_determinism () =
  let a = script_replay ~jobs:1 () in
  let b = script_replay ~jobs:4 () in
  Alcotest.(check bool) "payloads bit-identical jobs=1 vs 4" true (a = b)

let suite =
  [
    Alcotest.test_case "adversarial parses" `Quick test_adversarial_parses;
    Alcotest.test_case "bounded frame reading" `Quick test_frame_reading;
    Alcotest.test_case "server round-trip" `Quick test_server_roundtrip;
    Alcotest.test_case "junk frame degrades, connection survives" `Quick
      test_server_junk_degrades;
    Alcotest.test_case "oversized frame closes connection" `Quick
      test_server_oversized_closes;
    Alcotest.test_case "truncated frame answered" `Quick
      test_server_truncated_answered;
    Alcotest.test_case "capacity 0 sheds everything" `Quick
      test_capacity_zero_sheds_everything;
    Alcotest.test_case "flood sheds and recovers" `Quick
      test_flood_sheds_and_recovers;
    Alcotest.test_case "drain sheds with shutting_down" `Quick
      test_drain_sheds_with_shutting_down;
    Alcotest.test_case "bad parameters rejected" `Quick
      test_bad_parameters_rejected;
    Alcotest.test_case "idle timeout read error" `Quick
      test_idle_timeout_read_error;
    Alcotest.test_case "slow-loris peer evicted" `Quick test_idle_eviction;
    Alcotest.test_case "hot tenant cannot starve a quiet one" `Quick
      test_tenant_starvation;
    Alcotest.test_case "rpc_retry bounded" `Quick test_rpc_retry_bounded;
    Alcotest.test_case "past deadline returns incumbent" `Quick
      test_past_deadline_returns_incumbent;
    Alcotest.test_case "batching preserves payloads" `Quick
      test_batching_preserves_payloads;
    Alcotest.test_case "script replay jobs=1 vs 4" `Quick test_jobs_determinism;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
