(* pgserve: the fault-tolerant solver daemon.

   Listens on a Unix or TCP socket speaking the length-prefixed JSON
   protocol of lib/proto, multiplexing concurrent solve/diagnose requests
   onto the daemon's problem table with bounded admission control,
   per-request deadlines, and graceful drain on SIGINT/SIGTERM (or a
   Shutdown request when --allow-shutdown is set).

   Examples:
     pgserve --listen unix:/tmp/pgserve.sock
     pgserve --listen tcp:127.0.0.1:7070 --queue-capacity 8 *)

open Cmdliner

let listen_arg =
  let doc =
    "Address to listen on: $(b,unix:/path/to.sock) or $(b,tcp:host:port)."
  in
  Arg.(
    value
    & opt string "unix:/tmp/pgserve.sock"
    & info [ "listen"; "l" ] ~docv:"ADDR" ~doc)

let queue_capacity_arg =
  let doc =
    "Admission bound: solve/diagnose jobs admitted but not yet finished. \
     Requests beyond it are shed with a typed 'overloaded' rejection."
  in
  Arg.(value & opt int 32 & info [ "queue-capacity" ] ~docv:"N" ~doc)

let max_connections_arg =
  let doc = "Concurrent client connections; excess are rejected and closed." in
  Arg.(value & opt int 64 & info [ "max-connections" ] ~docv:"N" ~doc)

let idle_timeout_arg =
  let doc = "Seconds a connection may idle between requests." in
  Arg.(value & opt float 30.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let io_timeout_arg =
  let doc =
    "Per-frame read/write budget in seconds: a stalled or drip-feeding peer \
     costs at most this long."
  in
  Arg.(value & opt float 10.0 & info [ "io-timeout" ] ~docv:"SECONDS" ~doc)

let max_frame_arg =
  let doc = "Maximum frame size in bytes." in
  Arg.(
    value & opt int Proto.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let artificial_delay_arg =
  let doc =
    "Testing hook: sleep this many seconds inside every solve job (makes \
     load-shedding and drain behavior reproducible in the smoke test)."
  in
  Arg.(
    value & opt float 0.0 & info [ "artificial-delay" ] ~docv:"SECONDS" ~doc)

let allow_shutdown_arg =
  let doc = "Honor Shutdown requests from clients (used by the smoke test)." in
  Arg.(value & flag & info [ "allow-shutdown" ] ~doc)

let scale_cap_arg =
  let doc = "Largest suite-case scale a request may ask for." in
  Arg.(value & opt float 1.0 & info [ "scale-cap" ] ~docv:"S" ~doc)

let max_iter_arg =
  let doc = "PCG iteration budget per solve." in
  Arg.(value & opt int 500 & info [ "max-iter" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Serve Prometheus text format on a second listener: $(b,tcp:host:port) \
     (port 0 picks a free one; the bound address is printed) or \
     $(b,unix:/path). Plain HTTP, $(b,GET /metrics)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"ADDR" ~doc)

let access_log_arg =
  let doc =
    "Append one JSON line per request to $(docv) (fields: ts, id, op, \
     outcome, reason, rung, iterations, residual, bytes_in, bytes_out, \
     latency_ms)."
  in
  Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)

let access_log_max_bytes_arg =
  let doc =
    "Rotate the access log when it would exceed $(docv) bytes (the old file \
     is kept as FILE.1)."
  in
  Arg.(
    value
    & opt int (10 * 1024 * 1024)
    & info [ "access-log-max-bytes" ] ~docv:"BYTES" ~doc)

let run listen queue_capacity max_connections idle_timeout io_timeout
    max_frame artificial_delay allow_shutdown scale_cap max_iter metrics
    access_log access_log_max_bytes =
  let metrics_addr =
    match metrics with
    | None -> None
    | Some s -> (
      match Proto.addr_of_string s with
      | Error e ->
        Printf.eprintf "pgserve: bad --metrics address: %s\n" e;
        exit 2
      | Ok a -> Some a)
  in
  match Proto.addr_of_string listen with
  | Error e ->
    Printf.eprintf "pgserve: bad --listen address: %s\n" e;
    exit 2
  | Ok addr -> (
    let config =
      {
        (Serve.Daemon.default_config addr) with
        Serve.Daemon.queue_capacity;
        max_connections;
        idle_timeout;
        io_timeout;
        max_frame;
        artificial_delay;
        allow_shutdown;
        scale_cap;
        max_iter;
        metrics_addr;
        access_log;
        access_log_max_bytes;
      }
    in
    match Serve.Daemon.start config with
    | Error e ->
      Printf.eprintf "pgserve: %s\n" e;
      exit 1
    | Ok t ->
      Printf.printf "pgserve: listening on %s (queue %d, %d connections)\n%!"
        (Proto.addr_to_string addr) queue_capacity max_connections;
      (match Serve.Daemon.metrics_addr t with
       | Some a ->
         Printf.printf "pgserve: metrics on %s\n%!" (Proto.addr_to_string a)
       | None -> ());
      Option.iter
        (fun f -> Printf.printf "pgserve: access log at %s\n%!" f)
        access_log;
      (* Signal handlers only flip the stop flag — no locks, no
         allocation — so a signal can never deadlock the daemon. *)
      let stop _ = Serve.Daemon.request_stop t in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      (* wait blocks until a signal or a Shutdown request flips the stop
         flag and every connection drains; stop then releases the socket
         (its own request_stop is an idempotent no-op at that point) *)
      Serve.Daemon.wait t;
      Serve.Daemon.stop t;
      Printf.printf "pgserve: drained, exiting\n%!")

let cmd =
  let doc = "Fault-tolerant power-grid solver daemon." in
  Cmd.v
    (Cmd.info "pgserve" ~doc)
    Term.(
      const run $ listen_arg $ queue_capacity_arg $ max_connections_arg
      $ idle_timeout_arg $ io_timeout_arg $ max_frame_arg
      $ artificial_delay_arg $ allow_shutdown_arg $ scale_cap_arg
      $ max_iter_arg $ metrics_arg $ access_log_arg
      $ access_log_max_bytes_arg)

let () = exit (Cmd.eval cmd)
