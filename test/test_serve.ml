(* Serve-layer tests: protocol codec round trips, framed I/O under torn
   and hostile byte streams, cooperative deadline cancellation in the
   iteration loops, input validation (--domains, MatrixMarket nnz), and a
   live in-process daemon driven through overload, fault injection, and
   graceful drain. The robustness invariant under test throughout: every
   request ends in exactly one typed response — never a crash, never a
   hang. *)

module Csc = Sparse.Csc

(* ---- codec round trips ---- *)

let all_requests =
  [
    Proto.Ping;
    Proto.Health;
    Proto.Shutdown;
    Proto.Diagnose { spec = Proto.Case { id = "pg01"; scale = 0.25 } };
    Proto.Diagnose { spec = Proto.Mtx { path = "/tmp/grid.mtx" } };
    Proto.solve (Proto.Case { id = "pg03"; scale = 1.0 });
    Proto.solve ~solver:Proto.Amg ~rtol:1e-8 ~seed:7 ~deadline_ms:250.0
      ~robust:true ~want_x:true
      (Proto.Mtx { path = "a b/odd name.mtx" });
    Proto.update ~edits:[] (Proto.Case { id = "pg01"; scale = 0.1 });
    Proto.update ~rtol:1e-8 ~seed:3 ~deadline_ms:500.0 ~want_x:true
      ~edits:
        [
          Sddm.Edit.Set_conductance { u = 0; v = 5; siemens = 2.5 };
          Sddm.Edit.Scale_conductance { u = 1; v = 2; factor = 1e-6 };
          Sddm.Edit.Add_resistor { u = 3; v = 9; siemens = 0.125 };
          Sddm.Edit.Set_excess { node = 4; siemens = 0.5 };
          Sddm.Edit.Set_load { node = 7; amps = -0.25 };
        ]
      (Proto.Mtx { path = "/tmp/grid.mtx" });
  ]

let all_responses =
  [
    Proto.Pong;
    Proto.Bye;
    Proto.Rejected { reason = "overloaded: queue full (capacity 4)" };
    Proto.Timed_out { elapsed_ms = 12.5 };
    Proto.Failed { reason = "fatal diagnostics: disconnected graph" };
    Proto.Diagnosed { fatal = false; issues = [] };
    Proto.Diagnosed { fatal = true; issues = [ "zero pivot"; "nan in rhs" ] };
    Proto.Health_report
      (Obs.Json.Obj
         [
           ("schema", Obs.Json.Str "pgserve-metrics/v2");
           ( "windows",
             Obs.Json.List
               [
                 Obs.Json.Obj
                   [
                     ("label", Obs.Json.Str "1m");
                     ("span_s", Obs.Json.Float 60.0);
                     ("req_s", Obs.Json.Float 2.5);
                   ];
               ] );
           ( "fallback",
             Obs.Json.Obj
               [
                 ("engaged", Obs.Json.Int 1);
                 ("last_rung", Obs.Json.Str "jacobi-pcg");
               ] );
         ]);
    Proto.Solved
      {
        solver = "powerrchol";
        iterations = 17;
        residual = 3.2e-7;
        status = "converged";
        converged = true;
        t_solve_ms = 4.25;
        cache_hit = true;
        x = None;
      };
    Proto.Solved
      {
        solver = "direct";
        iterations = 0;
        residual = 1e-15;
        status = "direct";
        converged = true;
        t_solve_ms = 0.5;
        cache_hit = false;
        x = Some [| 1.0; -2.5; 0.0; 3.75e-3 |];
      };
  ]

let test_request_round_trip () =
  List.iter
    (fun req ->
      let s = Proto.request_to_string req in
      match Proto.request_of_string s with
      | Ok req' ->
        Alcotest.(check bool)
          (Printf.sprintf "request survives codec: %s" s)
          true (req = req')
      | Error e -> Alcotest.failf "decode failed on %s: %s" s e)
    all_requests

let test_response_round_trip () =
  List.iter
    (fun resp ->
      let s = Proto.response_to_string resp in
      match Proto.response_of_string s with
      | Ok resp' ->
        Alcotest.(check bool)
          (Printf.sprintf "response survives codec: %s" s)
          true (resp = resp')
      | Error e -> Alcotest.failf "decode failed on %s: %s" s e)
    all_responses

let test_decode_rejects_garbage () =
  let bad =
    [
      "";
      "not json";
      "{}";
      "{\"op\":\"warp-core\"}";
      "{\"op\":\"solve\"}";
      (* missing spec *)
      "{\"op\":\"solve\",\"case\":\"pg01\",\"scale\":\"big\"}";
      "[1,2,3]";
    ]
  in
  List.iter
    (fun s ->
      match Proto.request_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoder accepted garbage: %S" s)
    bad

(* Random bytes, truncations and 1-3-byte mutations of every encoding
   above: both decoders answer Ok or Error, and never raise. *)
let prop_decoders_total =
  let open QCheck.Gen in
  let encoding =
    oneofl
      (List.map Proto.request_to_string all_requests
      @ List.map Proto.response_to_string all_responses)
  in
  let truncated =
    encoding >>= fun s ->
    int_bound (String.length s) >|= fun k -> String.sub s 0 k
  in
  let mutated =
    encoding >>= fun s ->
    list_size (int_range 1 3) (pair (int_bound (String.length s - 1)) char)
    >|= fun edits ->
    let b = Bytes.of_string s in
    List.iter (fun (i, c) -> Bytes.set b i c) edits;
    Bytes.to_string b
  in
  QCheck.Test.make ~name:"decoders are total on fuzzed bytes" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%S")
       (oneof [ string_size (int_bound 64); truncated; mutated ]))
    (fun s ->
      (match Proto.request_of_string s with Ok _ | Error _ -> ());
      (match Proto.response_of_string s with Ok _ | Error _ -> ());
      true)

(* ---- framed I/O on a socketpair ---- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let test_frame_round_trip () =
  with_socketpair (fun a b ->
      let payload = Proto.request_to_string Proto.Ping in
      (match Proto.write_frame a payload with
       | Ok () -> ()
       | Error e -> Alcotest.failf "write: %s" (Proto.io_error_to_string e));
      match Proto.read_frame b with
      | Ok got -> Alcotest.(check string) "frame intact" payload got
      | Error e -> Alcotest.failf "read: %s" (Proto.io_error_to_string e))

let test_frame_back_to_back () =
  with_socketpair (fun a b ->
      let payloads = [ "first"; "second frame"; String.make 4096 'x' ] in
      List.iter
        (fun p ->
          match Proto.write_frame a p with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %s" (Proto.io_error_to_string e))
        payloads;
      List.iter
        (fun p ->
          match Proto.read_frame b with
          | Ok got -> Alcotest.(check string) "frames stay separated" p got
          | Error e -> Alcotest.failf "read: %s" (Proto.io_error_to_string e))
        payloads)

let test_frame_drip_fed () =
  (* one byte at a time from a writer thread: read_frame must accumulate
     partial reads into an intact frame *)
  with_socketpair (fun a b ->
      let payload = "{\"op\":\"ping\"}" in
      let raw = Proto.encode_header (String.length payload) ^ payload in
      let writer =
        Thread.create
          (fun () ->
            String.iter
              (fun c ->
                write_all a (String.make 1 c);
                Thread.delay 0.002)
              raw)
          ()
      in
      let got = Proto.read_frame ~deadline:(Obs.now () +. 5.0) b in
      Thread.join writer;
      match got with
      | Ok s -> Alcotest.(check string) "drip-fed frame reassembled" payload s
      | Error e -> Alcotest.failf "read: %s" (Proto.io_error_to_string e))

let test_frame_truncated () =
  with_socketpair (fun a b ->
      let payload = "{\"op\":\"ping\"}" in
      write_all a (Proto.encode_header 100);
      write_all a payload;
      Unix.close a;
      match Proto.read_frame b with
      | Error (Proto.Truncated { got; expected }) ->
        Alcotest.(check int) "expected from header" 100 expected;
        Alcotest.(check int) "got what was sent" (String.length payload) got
      | Error e ->
        Alcotest.failf "wanted Truncated, got %s" (Proto.io_error_to_string e)
      | Ok _ -> Alcotest.fail "truncated frame decoded as complete")

let test_frame_oversized () =
  with_socketpair (fun a b ->
      write_all a (Proto.encode_header 1_000_000);
      match Proto.read_frame ~max_frame:1024 b with
      | Error (Proto.Oversized { declared; limit }) ->
        Alcotest.(check int) "declared" 1_000_000 declared;
        Alcotest.(check int) "limit" 1024 limit
      | Error e ->
        Alcotest.failf "wanted Oversized, got %s" (Proto.io_error_to_string e)
      | Ok _ -> Alcotest.fail "oversized header accepted")

let test_frame_deadline () =
  with_socketpair (fun _a b ->
      let t0 = Obs.now () in
      match Proto.read_frame ~deadline:(t0 +. 0.15) b with
      | Error Proto.Deadline ->
        let waited = Obs.now () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "returned near the deadline (%.3fs)" waited)
          true
          (waited >= 0.10 && waited < 2.0)
      | Error e ->
        Alcotest.failf "wanted Deadline, got %s" (Proto.io_error_to_string e)
      | Ok _ -> Alcotest.fail "read_frame returned data from a silent peer")

let test_frame_clean_close () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Proto.read_frame b with
      | Error Proto.Closed -> ()
      | Error e ->
        Alcotest.failf "wanted Closed, got %s" (Proto.io_error_to_string e)
      | Ok _ -> Alcotest.fail "read from a closed peer succeeded")

(* ---- cooperative deadline cancellation in the iteration loops ---- *)

let test_pcg_deadline () =
  let p = Test_util.random_problem ~seed:611 ~n:200 ~m:600 in
  let res =
    Krylov.Pcg.solve ~rtol:1e-12 ~deadline:(Obs.now () -. 1.0)
      ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Krylov.Precond.identity 200) ()
  in
  (match res.Krylov.Pcg.status with
   | Krylov.Pcg.Timed_out { iteration } ->
     Alcotest.(check int) "cancelled before iterating" 0 iteration
   | s ->
     Alcotest.failf "wanted Timed_out, got %s" (Krylov.Pcg.status_to_string s));
  Alcotest.(check bool) "not converged" false res.Krylov.Pcg.converged

let test_pcg_deadline_mid_loop () =
  (* a deadline a few ms out lands mid-iteration on a hard problem: the
     loop must stop early with the best iterate so far, not run to
     max_iter *)
  let p = Test_util.random_problem ~seed:612 ~n:400 ~m:1200 in
  let res =
    Krylov.Pcg.solve ~rtol:1e-14 ~max_iter:100_000
      ~deadline:(Obs.now () +. 0.02) ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Krylov.Precond.identity 400) ()
  in
  match res.Krylov.Pcg.status with
  | Krylov.Pcg.Timed_out { iteration } ->
    Alcotest.(check bool)
      (Printf.sprintf "stopped at iteration %d, not the budget" iteration)
      true
      (iteration < 100_000)
  | Krylov.Pcg.Converged -> () (* tiny machine solved it inside 20 ms: fine *)
  | s ->
    Alcotest.failf "wanted Timed_out/Converged, got %s"
      (Krylov.Pcg.status_to_string s)

let test_fallback_deadline_skips_rungs () =
  let p = Test_util.random_problem ~seed:613 ~n:30 ~m:80 in
  let ran = ref 0 in
  let rung name : Robust.Fallback.rung =
    {
      Robust.Fallback.name;
      solve =
        (fun _ ->
          incr ran;
          failwith "should not run");
    }
  in
  let outcome =
    Robust.Fallback.run
      ~deadline:(Obs.now () -. 1.0)
      ~rungs:[ rung "first"; rung "second"; rung "third" ]
      p
  in
  Alcotest.(check int) "no rung executed" 0 !ran;
  Alcotest.(check bool) "no solution" true (outcome.Robust.Fallback.x = None);
  Alcotest.(check int) "every rung recorded as an attempt" 3
    (List.length outcome.Robust.Fallback.attempts);
  List.iter
    (fun a ->
      match a.Robust.Fallback.failure with
      | Robust.Fallback.Timed_out _ -> ()
      | f ->
        Alcotest.failf "rung %s recorded as %s, wanted timed-out"
          a.Robust.Fallback.rung
          (Robust.Fallback.failure_to_string f))
    outcome.Robust.Fallback.attempts

(* ---- input validation satellites ---- *)

let test_domains_of_string () =
  let ok s expected =
    match Par.domains_of_string s with
    | Ok d -> Alcotest.(check int) (Printf.sprintf "%S parses" s) expected d
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  let bad s =
    match Par.domains_of_string s with
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error is actionable: %s" s e)
        true
        (String.length e > 10)
    | Ok d -> Alcotest.failf "%S accepted as %d" s d
  in
  ok "1" 1;
  ok "4" 4;
  ok " 8 " 8;
  ok "128" 128;
  bad "";
  bad "0";
  bad "-3";
  bad "abc";
  bad "2.5";
  bad "4x";
  bad "129"

let with_temp_file contents f =
  let path = Filename.temp_file "mm-test" ".mtx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc contents);
      f path)

let test_mtx_trailing_entries () =
  (* declared nnz smaller than the data actually present: a concatenated
     or corrupted export must be rejected, not silently truncated *)
  let contents =
    "%%MatrixMarket matrix coordinate real symmetric\n\
     2 2 2\n\
     1 1 2.0\n\
     2 2 2.0\n\
     1 2 -1.0\n"
  in
  with_temp_file contents (fun path ->
      match Sparse.Matrix_market.read path with
      | exception Sparse.Matrix_market.Parse_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the mismatch: %s" msg)
          true
          (String.length msg > 10)
      | _ -> Alcotest.fail "extra entries past the declared nnz accepted")

let test_mtx_negative_size () =
  let contents =
    "%%MatrixMarket matrix coordinate real symmetric\n2 -2 1\n1 1 2.0\n"
  in
  with_temp_file contents (fun path ->
      match Sparse.Matrix_market.read path with
      | exception Sparse.Matrix_market.Parse_error _ -> ()
      | _ -> Alcotest.fail "negative dimension accepted")

let test_mtx_exact_nnz_still_reads () =
  let contents =
    "%%MatrixMarket matrix coordinate real symmetric\n\
     2 2 3\n\
     1 1 2.0\n\
     2 2 2.0\n\
     2 1 -1.0\n"
  in
  with_temp_file contents (fun path ->
      let a = Sparse.Matrix_market.read path in
      Alcotest.(check int) "n" 2 (fst (Csc.dims a)))

(* ---- live daemon ---- *)

let sock_counter = ref 0

let fresh_addr () =
  incr sock_counter;
  Proto.Unix_sock
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "pgserve-test-%d-%d.sock" (Unix.getpid ())
          !sock_counter))

let with_daemon ?(tweak = fun c -> c) f =
  let addr = fresh_addr () in
  let config = tweak (Serve.Daemon.default_config addr) in
  match Serve.Daemon.start config with
  | Error e -> Alcotest.failf "daemon failed to start: %s" e
  | Ok t ->
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop t) (fun () -> f t addr)

let call_ok ?retry addr req =
  match Serve.Client.call ?retry ~io_timeout:10.0 addr req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "call failed: %s" e

let test_daemon_ping_solve_cache () =
  with_daemon (fun _t addr ->
      (match call_ok addr Proto.Ping with
       | Proto.Pong -> ()
       | r -> Alcotest.failf "ping answered %s" (Proto.response_to_string r));
      let solve_req =
        Proto.solve ~want_x:true (Proto.Case { id = "pg01"; scale = 0.05 })
      in
      (match call_ok addr solve_req with
       | Proto.Solved { converged; x = Some x; _ } ->
         Alcotest.(check bool) "first solve converges" true converged;
         Alcotest.(check bool) "solution vector present" true
           (Array.length x > 0)
       | r ->
         Alcotest.failf "solve answered %s" (Proto.response_to_string r));
      (* same spec again: the daemon's problem table must serve it *)
      (match call_ok addr solve_req with
       | Proto.Solved { cache_hit; converged; _ } ->
         Alcotest.(check bool) "second solve converges" true converged;
         Alcotest.(check bool) "factorization came from the cache" true
           cache_hit
       | r ->
         Alcotest.failf "cached solve answered %s"
           (Proto.response_to_string r));
      match call_ok addr Proto.Health with
      | Proto.Health_report doc -> (
        match Obs.Json.member "schema" doc with
        | Some (Obs.Json.Str s) ->
          Alcotest.(check string) "metrics schema" "pgserve-metrics/v2" s
        | _ -> Alcotest.fail "metrics lack a schema field")
      | r -> Alcotest.failf "health answered %s" (Proto.response_to_string r))

let test_daemon_update_session () =
  with_daemon (fun _t addr ->
      let spec = Proto.Case { id = "pg01"; scale = 0.05 } in
      (* first update opens a session; rhs-only edits keep it cheap *)
      let req1 =
        Proto.update ~want_x:true
          ~edits:[ Sddm.Edit.Set_load { node = 3; amps = 0.02 } ]
          spec
      in
      let session1, x1 =
        match call_ok addr req1 with
        | Proto.Updated
            { session; version; rung; converged; x = Some x; _ } ->
          Alcotest.(check int) "first update is version 1" 1 version;
          Alcotest.(check string) "rhs-only rung" "rhs-only" rung;
          Alcotest.(check bool) "converged" true converged;
          (session, x)
        | r ->
          Alcotest.failf "update answered %s" (Proto.response_to_string r)
      in
      (* second update must land on the SAME session, one version later,
         and a value edit refactors in place, not a re-prepare *)
      let req2 =
        Proto.update ~want_x:true
          ~edits:[ Sddm.Edit.Set_excess { node = 0; siemens = 0.4 } ]
          spec
      in
      (match call_ok addr req2 with
       | Proto.Updated
           { session; version; rung; converged; residual; x = Some x; _ } ->
         Alcotest.(check int) "session reused" session1 session;
         Alcotest.(check int) "version advanced" 2 version;
         Alcotest.(check string) "local rung" "local" rung;
         Alcotest.(check bool) "converged" true converged;
         Alcotest.(check bool)
           (Printf.sprintf "residual %.3e small" residual)
           true (residual <= 1e-5);
         Alcotest.(check bool) "edit moved the solution" true (x <> x1)
       | r ->
         Alcotest.failf "second update answered %s"
           (Proto.response_to_string r));
      (* a bad edit must come back typed, not kill the session *)
      (match call_ok addr
               (Proto.update
                  ~edits:[ Sddm.Edit.Set_load { node = -1; amps = 0.0 } ]
                  spec)
       with
       | Proto.Failed _ -> ()
       | r ->
         Alcotest.failf "invalid edit answered %s"
           (Proto.response_to_string r));
      (* ... and the session survives with its version intact *)
      (match call_ok addr (Proto.update ~edits:[] spec) with
       | Proto.Updated { session; version; rung; _ } ->
         Alcotest.(check int) "session still alive" session1 session;
         Alcotest.(check int) "failed batch did not bump version" 3 version;
         Alcotest.(check string) "empty batch is rhs-only" "rhs-only" rung
       | r ->
         Alcotest.failf "empty update answered %s"
           (Proto.response_to_string r));
      (* the Health surface reports the session table *)
      match call_ok addr Proto.Health with
      | Proto.Health_report doc -> (
        match Obs.Json.member "sessions" doc with
        | Some sessions -> (
          (match Obs.Json.member "open" sessions with
           | Some (Obs.Json.Int n) ->
             Alcotest.(check int) "one open session" 1 n
           | _ -> Alcotest.fail "sessions.open missing");
          match Obs.Json.member "updates" sessions with
          | Some (Obs.Json.Int n) ->
            Alcotest.(check bool) "update counter advanced" true (n >= 3)
          | _ -> Alcotest.fail "sessions.updates missing")
        | None -> Alcotest.fail "metrics lack a sessions object")
      | r -> Alcotest.failf "health answered %s" (Proto.response_to_string r))

let test_daemon_expired_deadline () =
  with_daemon (fun _t addr ->
      match
        call_ok addr
          (Proto.solve ~deadline_ms:0.0
             (Proto.Case { id = "pg01"; scale = 0.05 }))
      with
      | Proto.Timed_out _ -> ()
      | r ->
        Alcotest.failf "expired deadline answered %s"
          (Proto.response_to_string r))

let test_daemon_bad_requests () =
  with_daemon (fun _t addr ->
      (* unknown case id: typed failure, not a crash *)
      (match
         call_ok addr (Proto.solve (Proto.Case { id = "pg99"; scale = 0.05 }))
       with
       | Proto.Failed _ | Proto.Rejected _ -> ()
       | r ->
         Alcotest.failf "unknown case answered %s"
           (Proto.response_to_string r));
      (* unreadable mtx path: same *)
      (match
         call_ok addr
           (Proto.solve (Proto.Mtx { path = "/nonexistent/nowhere.mtx" }))
       with
       | Proto.Failed _ | Proto.Rejected _ -> ()
       | r ->
         Alcotest.failf "missing mtx answered %s" (Proto.response_to_string r));
      (* hostile scale: bounded by scale_cap *)
      match
        call_ok addr (Proto.solve (Proto.Case { id = "pg01"; scale = 50.0 }))
      with
      | Proto.Rejected { reason } ->
        Alcotest.(check bool)
          (Printf.sprintf "reason is typed: %s" reason)
          true
          (String.length reason > 0)
      | r ->
        Alcotest.failf "oversized scale answered %s"
          (Proto.response_to_string r))

let test_daemon_survives_fault_injection () =
  with_daemon
    ~tweak:(fun c -> { c with Serve.Daemon.io_timeout = 0.4 })
    (fun _t addr ->
      let connect () =
        match Serve.Client.connect addr with
        | Ok fd -> fd
        | Error e -> Alcotest.failf "connect: %s" e
      in
      let ping_alive label =
        match call_ok addr Proto.Ping with
        | Proto.Pong -> ()
        | r ->
          Alcotest.failf "daemon unhealthy after %s: %s" label
            (Proto.response_to_string r)
      in
      let payload = Proto.request_to_string Proto.Ping in
      (* garbage payload: typed bad-request reply, connection survives *)
      let fd = connect () in
      Serve.Fault.send_garbage_frame fd;
      (match Proto.read_frame ~deadline:(Obs.now () +. 5.0) fd with
       | Ok s -> (
         match Proto.response_of_string s with
         | Ok (Proto.Rejected { reason }) ->
           Alcotest.(check bool)
             (Printf.sprintf "garbage answered: %s" reason)
             true
             (String.length reason > 0)
         | Ok r ->
           Alcotest.failf "garbage answered %s" (Proto.response_to_string r)
         | Error e -> Alcotest.failf "undecodable reply: %s" e)
       | Error e ->
         Alcotest.failf "no reply to garbage: %s" (Proto.io_error_to_string e));
      (* ...and the same connection still works *)
      (match Proto.write_frame fd payload with
       | Ok () -> ()
       | Error e -> Alcotest.failf "write: %s" (Proto.io_error_to_string e));
      (match Proto.read_frame ~deadline:(Obs.now () +. 5.0) fd with
       | Ok s ->
         Alcotest.(check bool) "connection survived the garbage frame" true
           (Proto.response_of_string s = Ok Proto.Pong)
       | Error e ->
         Alcotest.failf "post-garbage ping: %s" (Proto.io_error_to_string e));
      Serve.Client.close fd;
      (* torn frame left hanging: the io deadline reaps the connection *)
      let fd = connect () in
      Serve.Fault.send_truncated_frame fd payload;
      (match Proto.read_frame ~deadline:(Obs.now () +. 5.0) fd with
       | Error (Proto.Closed | Proto.Truncated _) -> ()
       | Error e ->
         Alcotest.failf "torn frame: wanted the connection reaped, got %s"
           (Proto.io_error_to_string e)
       | Ok s -> Alcotest.failf "torn frame answered %S" s);
      Serve.Client.close fd;
      ping_alive "torn frame";
      (* hostile length header: bounded rejection, never an allocation *)
      let fd = connect () in
      Serve.Fault.send_oversized_header fd;
      (match Proto.read_frame ~deadline:(Obs.now () +. 5.0) fd with
       | Ok s -> (
         match Proto.response_of_string s with
         | Ok (Proto.Rejected _) -> ()
         | _ -> Alcotest.failf "oversized header answered %S" s)
       | Error (Proto.Closed | Proto.Truncated _) -> ()
       | Error e ->
         Alcotest.failf "oversized header: %s" (Proto.io_error_to_string e));
      Serve.Client.close fd;
      ping_alive "oversized header";
      (* disconnect mid-request *)
      let fd = connect () in
      Serve.Fault.disconnect_mid_request fd payload;
      ping_alive "mid-request disconnect";
      (* drip-fed frame slower than the io budget: reaped, daemon alive *)
      let fd = connect () in
      Serve.Fault.send_stalled_frame ~stall:0.06 ~chunk:1 fd
        (String.sub payload 0 8);
      Serve.Client.close fd;
      ping_alive "stalled frame")

let test_daemon_load_shedding () =
  (* capacity 1 and a slow solve lane: concurrent requests must shed with
     a typed overload rejection, and every caller must get an answer *)
  with_daemon
    ~tweak:(fun c ->
      {
        c with
        Serve.Daemon.queue_capacity = 1;
        artificial_delay = 0.4;
      })
    (fun _t addr ->
      let n = 4 in
      let results = Array.make n (Error "never ran") in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Serve.Client.call ~retry:Serve.Client.no_retry
                    ~io_timeout:15.0 addr
                    (Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 })))
              ())
      in
      Array.iter Thread.join threads;
      let solved = ref 0 and shed = ref 0 in
      Array.iteri
        (fun i r ->
          match r with
          | Ok (Proto.Solved _) -> incr solved
          | Ok (Proto.Rejected { reason }) ->
            Alcotest.(check bool)
              (Printf.sprintf "client %d shed with a typed reason: %s" i
                 reason)
              true
              (String.length reason >= String.length "overloaded"
              && String.sub reason 0 10 = "overloaded");
            incr shed
          | Ok r ->
            Alcotest.failf "client %d got %s" i (Proto.response_to_string r)
          | Error e -> Alcotest.failf "client %d transport error: %s" i e)
        results;
      Alcotest.(check int) "every request answered" n (!solved + !shed);
      Alcotest.(check bool)
        (Printf.sprintf "%d solved / %d shed" !solved !shed)
        true
        (!solved >= 1 && !shed >= 1);
      (* the shed counter made it into the metrics *)
      match call_ok addr Proto.Health with
      | Proto.Health_report doc ->
        let shed_metric =
          match Obs.Json.member "requests" doc with
          | Some reqs -> (
            match Obs.Json.member "shed" reqs with
            | Some (Obs.Json.Int k) -> k
            | _ -> -1)
          | None -> -1
        in
        Alcotest.(check int) "metrics count the shed requests" !shed
          shed_metric;
        (* a shed request never ran, so it has no service time *)
        let latency_count =
          match Obs.Json.member "latency_s" doc with
          | Some h -> (
            match Obs.Json.member "count" h with
            | Some (Obs.Json.Int k) -> k
            | _ -> -1)
          | None -> -1
        in
        Alcotest.(check int) "latency counts only the solved requests"
          !solved latency_count
      | r -> Alcotest.failf "health answered %s" (Proto.response_to_string r))

let test_daemon_retry_rides_out_overload () =
  (* same overload, but with the backoff policy: the retried client must
     eventually land its request *)
  with_daemon
    ~tweak:(fun c ->
      {
        c with
        Serve.Daemon.queue_capacity = 1;
        artificial_delay = 0.25;
      })
    (fun _t addr ->
      let blocker =
        Thread.create
          (fun () ->
            ignore
              (Serve.Client.call ~retry:Serve.Client.no_retry ~io_timeout:15.0
                 addr
                 (Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 }))))
          ()
      in
      Thread.delay 0.05;
      let retried =
        Serve.Client.call
          ~retry:
            {
              Serve.Client.attempts = 8;
              base_delay = 0.1;
              max_delay = 0.5;
              jitter = 0.5;
            }
          ~io_timeout:15.0 addr
          (Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 }))
      in
      Thread.join blocker;
      match retried with
      | Ok (Proto.Solved { converged; _ }) ->
        Alcotest.(check bool) "retried request solved" true converged
      | Ok r ->
        Alcotest.failf "retried request got %s" (Proto.response_to_string r)
      | Error e -> Alcotest.failf "retried request failed: %s" e)

let test_daemon_graceful_drain () =
  with_daemon
    ~tweak:(fun c ->
      {
        c with
        Serve.Daemon.allow_shutdown = true;
        artificial_delay = 0.3;
      })
    (fun t addr ->
      (* park one slow request in flight, then ask for shutdown *)
      let inflight = ref (Error "never ran") in
      let worker =
        Thread.create
          (fun () ->
            inflight :=
              Serve.Client.call ~retry:Serve.Client.no_retry ~io_timeout:15.0
                addr
                (Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 })))
          ()
      in
      Thread.delay 0.1;
      (match call_ok addr Proto.Shutdown with
       | Proto.Bye -> ()
       | r ->
         Alcotest.failf "shutdown answered %s" (Proto.response_to_string r));
      Alcotest.(check bool) "daemon reports stopping" true
        (Serve.Daemon.stopping t);
      Serve.Daemon.wait t;
      Thread.join worker;
      (* the in-flight request drained to a typed completion *)
      (match !inflight with
       | Ok (Proto.Solved { converged; _ }) ->
         Alcotest.(check bool) "in-flight request completed" true converged
       | Ok (Proto.Rejected _) ->
         (* admitted-after-stop would also be typed; accept it *)
         ()
       | Ok r ->
         Alcotest.failf "in-flight request got %s"
           (Proto.response_to_string r)
       | Error e -> Alcotest.failf "in-flight request lost: %s" e);
      (* new connections are refused once drained *)
      match Serve.Client.connect addr with
      | Error _ -> ()
      | Ok fd ->
        (* socket file may still accept; the daemon must not answer *)
        let resp = Serve.Client.request ~io_timeout:0.5 fd Proto.Ping in
        Serve.Client.close fd;
        (match resp with
         | Error _ -> ()
         | Ok (Proto.Rejected _) -> ()
         | Ok r ->
           Alcotest.failf "drained daemon answered %s"
             (Proto.response_to_string r)))

let test_daemon_shutdown_disabled () =
  with_daemon (fun t addr ->
      (match call_ok addr Proto.Shutdown with
       | Proto.Rejected _ -> ()
       | r ->
         Alcotest.failf "disabled shutdown answered %s"
           (Proto.response_to_string r));
      Alcotest.(check bool) "daemon keeps running" false
        (Serve.Daemon.stopping t);
      match call_ok addr Proto.Ping with
      | Proto.Pong -> ()
      | r -> Alcotest.failf "ping answered %s" (Proto.response_to_string r))

(* ---- the daemon's problem table ---- *)

(* (cache_hit, x) of a converged solve *)
let solved addr req =
  match call_ok addr req with
  | Proto.Solved { converged = true; cache_hit; x; _ } -> (cache_hit, x)
  | r -> Alcotest.failf "solve answered %s" (Proto.response_to_string r)

let engine_counts addr =
  match call_ok addr Proto.Health with
  | Proto.Health_report doc -> (
    match Serve.Health.of_json doc with
    | Ok v -> (v.Serve.Health.engine_hits, v.Serve.Health.engine_misses)
    | Error e -> Alcotest.failf "health report failed to parse: %s" e)
  | r -> Alcotest.failf "health answered %s" (Proto.response_to_string r)

let test_daemon_table_per_daemon () =
  (* another daemon in this process solving the spec first must not
     warm a fresh daemon's table *)
  let req = Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 }) in
  with_daemon (fun _t addr -> ignore (solved addr req));
  with_daemon (fun _t addr ->
      Alcotest.(check bool) "first solve misses" false (fst (solved addr req));
      Alcotest.(check (pair int int))
        "hits, misses" (0, 1) (engine_counts addr);
      Alcotest.(check bool) "repeat hits" true (fst (solved addr req));
      Alcotest.(check (pair int int))
        "hits, misses after the repeat" (1, 1) (engine_counts addr))

let test_daemon_lru_keeps_touched_handle () =
  with_daemon (fun _t addr ->
      let spec = Proto.Case { id = "pg01"; scale = 0.05 } in
      let hit seed = fst (solved addr (Proto.solve ~seed spec)) in
      ignore (hit 100);
      for seed = 1 to Serve.Daemon.max_handles do
        Alcotest.(check bool) (Printf.sprintf "seed %d is new" seed) false
          (hit seed);
        Alcotest.(check bool)
          (Printf.sprintf "touched handle cached after seed %d" seed)
          true (hit 100)
      done)

(* A grounded chain: diagonal [diag], -1 between neighbours. *)
let chain_mtx ~diag n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "%%MatrixMarket matrix coordinate real symmetric\n";
  Printf.bprintf buf "%d %d %d\n" n n ((2 * n) - 1);
  for i = 1 to n do
    Printf.bprintf buf "%d %d %.1f\n" i i diag;
    if i < n then Printf.bprintf buf "%d %d -1.0\n" (i + 1) i
  done;
  Buffer.contents buf

let test_daemon_mtx_rewrite_misses () =
  let before = chain_mtx ~diag:3.0 40 and after = chain_mtx ~diag:5.0 40 in
  Alcotest.(check int) "same byte length" (String.length before)
    (String.length after);
  with_temp_file before (fun path ->
      with_daemon (fun _t addr ->
          let req = Proto.solve ~want_x:true (Proto.Mtx { path }) in
          let x_of = function
            | Some x -> Sparse.Vec.of_array x
            | None -> Alcotest.fail "solution vector missing"
          in
          let a_old = Sparse.Matrix_market.read path in
          let hit, x_old = solved addr req in
          Alcotest.(check bool) "first solve misses" false hit;
          Alcotest.(check bool) "repeat hits" true (fst (solved addr req));
          Out_channel.with_open_text path (fun oc -> output_string oc after);
          let a_new = Sparse.Matrix_market.read path in
          let hit, x_new = solved addr req in
          Alcotest.(check bool) "rewritten file misses" false hit;
          (* both answers solve the same load: A_new x_new = A_old x_old *)
          let b = Csc.spmv a_old (x_of x_old) in
          let relres a x =
            Sparse.Vec.norm2 (Sparse.Vec.sub b (Csc.spmv a (x_of x)))
            /. Sparse.Vec.norm2 b
          in
          let r = relres a_new x_new in
          Alcotest.(check bool)
            (Printf.sprintf "x solves the new matrix (%.2e)" r)
            true (r < 1e-5);
          Alcotest.(check bool) "the old x does not" true
            (relres a_new x_old > 1e-2)))

let test_daemon_robust_reuses_handle () =
  let spec = Proto.Case { id = "pg01"; scale = 0.05 } in
  let robust = Proto.solve ~robust:true ~want_x:true spec in
  let bits = Option.map (Array.map Int64.bits_of_float) in
  let reused =
    with_daemon (fun _t addr ->
        ignore (solved addr (Proto.solve spec));
        let hit, x = solved addr robust in
        Alcotest.(check bool) "robust solve reports the reuse" true hit;
        bits x)
  in
  let fresh =
    with_daemon (fun _t addr ->
        let hit, x = solved addr robust in
        Alcotest.(check bool) "nothing to reuse on a fresh daemon" false hit;
        bits x)
  in
  Alcotest.(check bool) "x present" true (reused <> None);
  Alcotest.(check bool) "x bit-identical to the fresh robust solve" true
    (reused = fresh)

let test_daemon_robust_obeys_max_iter () =
  (* the daemon's iteration cap bounds every rung of a robust solve, as
     it bounds a plain one *)
  with_daemon
    ~tweak:(fun c -> { c with Serve.Daemon.max_iter = 1 })
    (fun _t addr ->
      match
        call_ok addr
          (Proto.solve ~robust:true (Proto.Case { id = "pg01"; scale = 0.05 }))
      with
      | Proto.Solved { iterations; solver; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s answered after %d iterations, cap 1" solver
             iterations)
          true (iterations <= 1)
      | r -> Alcotest.failf "robust solve answered %s" (Proto.response_to_string r))

let test_daemon_diagnose_scale_cap () =
  with_daemon
    ~tweak:(fun c -> { c with Serve.Daemon.scale_cap = 0.01 })
    (fun _t addr ->
      match
        call_ok addr
          (Proto.Diagnose { spec = Proto.Case { id = "pg01"; scale = 0.05 } })
      with
      | Proto.Rejected { reason } ->
        Alcotest.(check string) "typed bad request" "bad-request:"
          (String.sub reason 0 (min 12 (String.length reason)))
      | r ->
        Alcotest.failf "over-cap diagnose answered %s"
          (Proto.response_to_string r))

let test_daemon_sessions_keyed_by_exact_scale () =
  (* equal to six significant digits, yet 25x25 and 26x26 grids *)
  with_daemon (fun _t addr ->
      let update scale =
        match
          call_ok addr
            (Proto.update ~want_x:true
               ~edits:[ Sddm.Edit.Set_load { node = 3; amps = 0.02 } ]
               (Proto.Case { id = "pg01"; scale }))
        with
        | Proto.Updated { session; converged = true; x = Some x; _ } ->
          (session, Array.length x)
        | r -> Alcotest.failf "update answered %s" (Proto.response_to_string r)
      in
      let s1, n1 = update 0.05586776 in
      let s2, n2 = update 0.05586778 in
      Alcotest.(check int) "first grid" 674 n1;
      Alcotest.(check bool) "second spec opens its own session" true (s1 <> s2);
      Alcotest.(check int) "second grid" 725 n2)

let test_daemon_numbers_its_own_sessions () =
  (* session ids come from the daemon that opened the sessions: a
     session created in-process between two daemon updates takes no
     number from it *)
  with_daemon (fun _t addr ->
      let update scale =
        match
          call_ok addr
            (Proto.update
               ~edits:[ Sddm.Edit.Set_load { node = 3; amps = 0.02 } ]
               (Proto.Case { id = "pg01"; scale }))
        with
        | Proto.Updated { session; converged = true; _ } -> session
        | r -> Alcotest.failf "update answered %s" (Proto.response_to_string r)
      in
      let s1 = update 0.05 in
      ignore
        (Powerrchol.Engine.Session.create
           (Test_util.random_problem ~seed:614 ~n:30 ~m:80));
      let s2 = update 0.06 in
      Alcotest.(check int) "first session" 1 s1;
      Alcotest.(check int) "second session" 2 s2)

let test_daemon_sessions_capped_at_four () =
  (* sessions are keyed by seed on a spec's entry: a fifth seed closes
     the oldest session, and that seed's next update opens a new one *)
  with_daemon (fun _t addr ->
      let spec = Proto.Case { id = "pg01"; scale = 0.05 } in
      let update seed =
        match
          call_ok addr
            (Proto.update ~seed
               ~edits:[ Sddm.Edit.Set_load { node = 3; amps = 0.02 } ]
               spec)
        with
        | Proto.Updated { session; version; converged = true; _ } ->
          (session, version)
        | r -> Alcotest.failf "update answered %s" (Proto.response_to_string r)
      in
      List.iter
        (fun seed ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "seed %d opens session %d" seed seed)
            (seed, 1) (update seed))
        [ 1; 2; 3; 4; 5 ];
      Alcotest.(check (pair int int)) "seed 5 keeps its session" (5, 2)
        (update 5);
      Alcotest.(check (pair int int)) "seed 1 was evicted, reopens" (6, 1)
        (update 1);
      match call_ok addr Proto.Health with
      | Proto.Health_report doc -> (
        let field name =
          match Obs.Json.member "sessions" doc with
          | Some sessions -> (
            match Obs.Json.member name sessions with
            | Some (Obs.Json.Int n) -> n
            | _ -> Alcotest.failf "sessions.%s missing" name)
          | None -> Alcotest.fail "metrics lack a sessions object"
        in
        Alcotest.(check int) "open" 4 (field "open");
        Alcotest.(check int) "capacity" 4 (field "capacity"))
      | r -> Alcotest.failf "health answered %s" (Proto.response_to_string r))

let test_daemon_rtol_floor () =
  (* a tolerance below 1e-14 is solved at 1e-14: same iterations and
     bits, and converged, where 1e-300 itself could never converge *)
  with_daemon (fun _t addr ->
      let solve rtol =
        match
          call_ok addr
            (Proto.solve ~rtol ~want_x:true
               (Proto.Case { id = "pg01"; scale = 0.05 }))
        with
        | Proto.Solved { iterations; converged; x = Some x; _ } ->
          (iterations, converged, x)
        | r -> Alcotest.failf "solve answered %s" (Proto.response_to_string r)
      in
      let at_floor = solve 1e-14 in
      let i, converged, x = solve 1e-300 in
      let i', converged', x' = at_floor in
      Alcotest.(check bool) "converged at 1e-14" true converged';
      Alcotest.(check bool) "converged at 1e-300" true converged;
      Alcotest.(check int) "same iterations" i' i;
      Alcotest.(check (array (float 0.0))) "same solution" x' x)

(* ---- monitoring surface: v2 health, access log, metrics listener ---- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* access-log lines land after the response frame is already on the
   wire, so give the logger a moment to catch up before asserting *)
let wait_for ?(timeout = 5.0) pred =
  let deadline = Obs.now () +. timeout in
  let rec go () =
    if (try pred () with Sys_error _ -> false) then ()
    else if Obs.now () > deadline then ()
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_health_v2_typed_view () =
  with_daemon (fun t addr ->
      let solve_req = Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 }) in
      (match call_ok addr solve_req with
       | Proto.Solved _ -> ()
       | r -> Alcotest.failf "solve answered %s" (Proto.response_to_string r));
      let doc =
        match call_ok addr Proto.Health with
        | Proto.Health_report doc -> doc
        | r -> Alcotest.failf "health answered %s" (Proto.response_to_string r)
      in
      let v =
        match Serve.Health.of_json doc with
        | Ok v -> v
        | Error e -> Alcotest.failf "v2 report failed to parse: %s" e
      in
      Alcotest.(check string) "schema" "pgserve-metrics/v2" v.Serve.Health.schema;
      Alcotest.(check (list string))
        "three rolling windows" [ "1m"; "5m"; "15m" ]
        (List.map (fun w -> w.Serve.Health.label) v.Serve.Health.windows);
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "window %s saw the solve" w.Serve.Health.label)
            true
            (w.Serve.Health.requests >= 1.0 && w.Serve.Health.req_s > 0.0))
        v.Serve.Health.windows;
      Alcotest.(check bool) "lifetime latency histogram present" true
        (v.Serve.Health.latency <> None);
      Alcotest.(check int) "requests counted" 2 v.Serve.Health.requests_total;
      (* the v1 subset rides inside the v2 document untouched: a v1
         consumer reading the raw JSON still finds its fields *)
      (match Obs.Json.member "requests" doc with
       | Some reqs -> (
         match Obs.Json.member "solved" reqs with
         | Some (Obs.Json.Int 1) -> ()
         | _ -> Alcotest.fail "v1 field requests.solved changed shape")
       | None -> Alcotest.fail "v1 requests object missing from v2 doc");
      (* and the daemon-side Prometheus rendering validates *)
      match Obs.Prom.validate (Serve.Daemon.metrics_text t) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "metrics_text failed validation: %s" e)

let test_health_v1_doc_still_parses () =
  (* a hand-built v1 report (no windows, no fallback block) must parse
     into the same typed view, with the new surfaces empty *)
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "pgserve-metrics/v1");
        ("uptime_s", Obs.Json.Float 12.5);
        ( "requests",
          Obs.Json.Obj
            [ ("total", Obs.Json.Int 7); ("solved", Obs.Json.Int 6) ] );
        ("queue", Obs.Json.Obj [ ("capacity", Obs.Json.Int 4) ]);
      ]
  in
  match Serve.Health.of_json doc with
  | Error e -> Alcotest.failf "v1 doc rejected: %s" e
  | Ok v ->
    Alcotest.(check string) "schema" "pgserve-metrics/v1" v.Serve.Health.schema;
    Alcotest.(check int) "total" 7 v.Serve.Health.requests_total;
    Alcotest.(check int) "capacity" 4 v.Serve.Health.queue_capacity;
    Alcotest.(check int) "no windows" 0 (List.length v.Serve.Health.windows);
    Alcotest.(check int) "no fallback engagements" 0
      v.Serve.Health.fallback_engaged;
    Alcotest.(check (list (pair string int))) "no rung wins" []
      v.Serve.Health.fallback_rungs

let with_access_log_daemon ?max_bytes f =
  let log =
    Filename.temp_file
      (Printf.sprintf "pgserve-access-%d" (Unix.getpid ()))
      ".jsonl"
  in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove log with Sys_error _ -> ());
      try Sys.remove (log ^ ".1") with Sys_error _ -> ())
    (fun () ->
      with_daemon
        ~tweak:(fun c ->
          {
            c with
            Serve.Daemon.access_log = Some log;
            access_log_max_bytes =
              Option.value max_bytes
                ~default:c.Serve.Daemon.access_log_max_bytes;
          })
        (fun t addr -> f t addr log))

let test_access_log_one_line_per_request () =
  with_access_log_daemon (fun _t addr log ->
      let solve_req = Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 }) in
      ignore (call_ok addr Proto.Ping);
      (match call_ok addr solve_req with
       | Proto.Solved _ -> ()
       | r -> Alcotest.failf "solve answered %s" (Proto.response_to_string r));
      (match call_ok addr (Proto.solve (Proto.Case { id = "pg99"; scale = 1.0 }))
       with
       | Proto.Failed _ -> ()
       | r ->
         Alcotest.failf "bad case answered %s" (Proto.response_to_string r));
      ignore (call_ok addr Proto.Health);
      wait_for (fun () -> List.length (read_lines log) = 4);
      let lines = read_lines log in
      Alcotest.(check int) "one line per request" 4 (List.length lines);
      let ids = Hashtbl.create 8 in
      let field line name =
        match Obs.Json.parse line with
        | Error e -> Alcotest.failf "access line is not JSON (%s): %s" e line
        | Ok j -> (
          match Obs.Json.member name j with
          | Some v -> v
          | None -> Alcotest.failf "access line lacks %S: %s" name line)
      in
      List.iter
        (fun line ->
          (match field line "id" with
           | Obs.Json.Str id ->
             Alcotest.(check bool)
               (Printf.sprintf "request id %s unique" id)
               false (Hashtbl.mem ids id);
             Hashtbl.replace ids id ()
           | _ -> Alcotest.fail "id is not a string");
          List.iter
            (fun k -> ignore (field line k))
            [ "ts"; "op"; "outcome"; "bytes_in"; "bytes_out"; "latency_ms" ])
        lines;
      (* outcomes landed where they should *)
      (* lines are written when each handler finishes, so their order can
         differ from request order — compare as a multiset *)
      let outcomes =
        List.map
          (fun line ->
            match field line "outcome" with
            | Obs.Json.Str s -> s
            | _ -> "?")
          lines
      in
      Alcotest.(check (list string))
        "typed outcomes"
        (List.sort compare [ "pong"; "solved"; "failed"; "health" ])
        (List.sort compare outcomes))

let test_access_log_rotation () =
  (* a cap smaller than a handful of lines forces a rotation: FILE is
     renamed to FILE.1 and the live log starts over *)
  with_access_log_daemon ~max_bytes:400 (fun t addr log ->
      for _ = 1 to 6 do
        ignore (call_ok addr Proto.Ping)
      done;
      (* a request's line is written after its response frame, so the
         last one may still be rotating the files when the call returns;
         once no connection is open, every line is written *)
      let idle () =
        match
          Option.bind
            (Obs.Json.member "connections" (Serve.Daemon.metrics t))
            (Obs.Json.member "active")
        with
        | Some (Obs.Json.Int 0) -> true
        | _ -> false
      in
      wait_for idle;
      wait_for (fun () ->
          Sys.file_exists (log ^ ".1") && read_lines log <> []);
      Alcotest.(check bool) "rotated file exists" true
        (Sys.file_exists (log ^ ".1"));
      (* only one rotated generation is kept, so older lines may be gone;
         what must hold: both files are non-empty valid JSONL and the
         live log never grows past the cap *)
      let live = read_lines log and rotated = read_lines (log ^ ".1") in
      Alcotest.(check bool) "live log non-empty" true (live <> []);
      Alcotest.(check bool) "rotated log non-empty" true (rotated <> []);
      Alcotest.(check bool) "nothing fabricated" true
        (List.length live + List.length rotated <= 6);
      List.iter
        (fun line ->
          match Obs.Json.parse line with
          | Ok _ -> ()
          | Error e ->
            Alcotest.failf "line split across rotation (%s): %s" e line)
        (live @ rotated);
      Alcotest.(check bool) "live log stays under the cap" true
        ((Unix.stat log).Unix.st_size <= 400))

let test_access_log_ids_match_spans () =
  (* the id on each access-log line is the same id that names the
     request's Obs span subtree (path "req/<id>/...") *)
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      with_access_log_daemon (fun _t addr log ->
          let solve_req =
            Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 })
          in
          (match call_ok addr solve_req with
           | Proto.Solved _ -> ()
           | r ->
             Alcotest.failf "solve answered %s" (Proto.response_to_string r));
          wait_for (fun () -> read_lines log <> []);
          let record = Obs.capture () in
          let span_ids =
            List.filter_map
              (fun s ->
                let p = s.Obs.path in
                if String.length p > 4 && String.sub p 0 4 = "req/" then
                  let rest = String.sub p 4 (String.length p - 4) in
                  match String.index_opt rest '/' with
                  | Some i -> Some (String.sub rest 0 i)
                  | None -> Some rest
                else None)
              record.Obs.spans
          in
          let logged_ids =
            List.filter_map
              (fun line ->
                match Obs.Json.parse line with
                | Ok j -> (
                  match Obs.Json.member "id" j with
                  | Some (Obs.Json.Str id) -> Some id
                  | _ -> None)
                | Error _ -> None)
              (read_lines log)
          in
          Alcotest.(check bool) "solve produced a request span" true
            (span_ids <> []);
          List.iter
            (fun id ->
              Alcotest.(check bool)
                (Printf.sprintf "span id %s appears in the access log" id)
                true (List.mem id logged_ids))
            span_ids))

let http_get addr path =
  match addr with
  | Proto.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        in
        drain ();
        Buffer.contents buf)
  | _ -> Alcotest.fail "metrics listener did not bind a TCP address"

let split_http_response raw =
  let sep = "\r\n\r\n" in
  let rec find i =
    if i + String.length sep > String.length raw then None
    else if String.sub raw i (String.length sep) = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "no header/body separator in %S" raw
  | Some i ->
    let headers = String.sub raw 0 i in
    let body =
      String.sub raw
        (i + String.length sep)
        (String.length raw - i - String.length sep)
    in
    (headers, body)

let test_metrics_http_listener () =
  with_daemon
    ~tweak:(fun c ->
      { c with Serve.Daemon.metrics_addr = Some (Proto.Tcp ("127.0.0.1", 0)) })
    (fun t addr ->
      ignore
        (call_ok addr (Proto.solve (Proto.Case { id = "pg01"; scale = 0.05 })));
      let maddr =
        match Serve.Daemon.metrics_addr t with
        | Some a -> a
        | None -> Alcotest.fail "daemon reports no metrics address"
      in
      (* the ephemeral port 0 must have been resolved to a real one *)
      (match maddr with
       | Proto.Tcp (_, port) ->
         Alcotest.(check bool) "ephemeral port resolved" true (port > 0)
       | _ -> Alcotest.fail "metrics address is not TCP");
      let headers, body = split_http_response (http_get maddr "/metrics") in
      Alcotest.(check bool) "200 OK" true
        (String.length headers >= 12 && String.sub headers 9 3 = "200");
      Alcotest.(check bool) "prometheus content type" true
        (let ct = "text/plain; version=0.0.4" in
         let rec has i =
           i + String.length ct <= String.length headers
           && (String.sub headers i (String.length ct) = ct || has (i + 1))
         in
         has 0);
      (match Obs.Prom.validate body with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "scraped body failed validation: %s" e);
      Alcotest.(check bool) "core family present" true
        (let needle = "pgserve_requests_total" in
         let rec has i =
           i + String.length needle <= String.length body
           && (String.sub body i (String.length needle) = needle || has (i + 1))
         in
         has 0);
      (* anything else is a 404 *)
      let headers404, _ = split_http_response (http_get maddr "/other") in
      Alcotest.(check bool) "GET /other -> 404" true
        (String.length headers404 >= 12 && String.sub headers404 9 3 = "404"))

(* ---- suite ---- *)

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "response round trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "garbage rejected" `Quick
            test_decode_rejects_garbage;
        ]
        @ Test_util.qcheck [ prop_decoders_total ] );
      ( "framing",
        [
          Alcotest.test_case "round trip" `Quick test_frame_round_trip;
          Alcotest.test_case "back-to-back frames" `Quick
            test_frame_back_to_back;
          Alcotest.test_case "drip-fed partial reads" `Quick
            test_frame_drip_fed;
          Alcotest.test_case "truncated frame" `Quick test_frame_truncated;
          Alcotest.test_case "oversized header" `Quick test_frame_oversized;
          Alcotest.test_case "read deadline" `Quick test_frame_deadline;
          Alcotest.test_case "clean close" `Quick test_frame_clean_close;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "pcg expired deadline" `Quick test_pcg_deadline;
          Alcotest.test_case "pcg mid-loop cancellation" `Quick
            test_pcg_deadline_mid_loop;
          Alcotest.test_case "fallback skips rungs" `Quick
            test_fallback_deadline_skips_rungs;
        ] );
      ( "validation",
        [
          Alcotest.test_case "domains_of_string" `Quick
            test_domains_of_string;
          Alcotest.test_case "mtx trailing entries" `Quick
            test_mtx_trailing_entries;
          Alcotest.test_case "mtx negative size" `Quick
            test_mtx_negative_size;
          Alcotest.test_case "mtx exact nnz reads" `Quick
            test_mtx_exact_nnz_still_reads;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "ping, solve, cache, health" `Quick
            test_daemon_ping_solve_cache;
          Alcotest.test_case "update sessions" `Quick
            test_daemon_update_session;
          Alcotest.test_case "expired deadline" `Quick
            test_daemon_expired_deadline;
          Alcotest.test_case "bad requests stay typed" `Quick
            test_daemon_bad_requests;
          Alcotest.test_case "survives fault injection" `Quick
            test_daemon_survives_fault_injection;
          Alcotest.test_case "load shedding" `Quick test_daemon_load_shedding;
          Alcotest.test_case "retry rides out overload" `Quick
            test_daemon_retry_rides_out_overload;
          Alcotest.test_case "graceful drain" `Quick
            test_daemon_graceful_drain;
          Alcotest.test_case "shutdown disabled by default" `Quick
            test_daemon_shutdown_disabled;
        ] );
      ( "table",
        [
          Alcotest.test_case "one table per daemon" `Quick
            test_daemon_table_per_daemon;
          Alcotest.test_case "LRU keeps a touched handle" `Quick
            test_daemon_lru_keeps_touched_handle;
          Alcotest.test_case "rewritten mtx misses" `Quick
            test_daemon_mtx_rewrite_misses;
          Alcotest.test_case "robust solve reuses the handle" `Quick
            test_daemon_robust_reuses_handle;
          Alcotest.test_case "robust solve obeys max_iter" `Quick
            test_daemon_robust_obeys_max_iter;
          Alcotest.test_case "diagnose obeys the scale cap" `Quick
            test_daemon_diagnose_scale_cap;
          Alcotest.test_case "sessions keyed by exact scale" `Quick
            test_daemon_sessions_keyed_by_exact_scale;
          Alcotest.test_case "daemon numbers its own sessions" `Quick
            test_daemon_numbers_its_own_sessions;
          Alcotest.test_case "sessions capped at four" `Quick
            test_daemon_sessions_capped_at_four;
          Alcotest.test_case "request rtol floored at 1e-14" `Quick
            test_daemon_rtol_floor;
        ] );
      ( "monitoring",
        [
          Alcotest.test_case "v2 health parses into the typed view" `Quick
            test_health_v2_typed_view;
          Alcotest.test_case "v1 documents still parse" `Quick
            test_health_v1_doc_still_parses;
          Alcotest.test_case "access log: one JSONL line per request" `Quick
            test_access_log_one_line_per_request;
          Alcotest.test_case "access log rotates at the size cap" `Quick
            test_access_log_rotation;
          Alcotest.test_case "request ids correlate log and spans" `Quick
            test_access_log_ids_match_spans;
          Alcotest.test_case "metrics HTTP listener" `Quick
            test_metrics_http_listener;
        ] );
    ]
