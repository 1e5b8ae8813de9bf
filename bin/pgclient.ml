(* pgclient: CLI client for the pgserve daemon.

   Operations:
     ping       liveness round trip
     health     metrics snapshot (counters, latency percentiles, cache)
     metrics    same snapshot; with --prom, Prometheus text format
     solve      solve a suite case or .mtx file server-side
     diagnose   pre-flight diagnostics server-side
     shutdown   ask the daemon to drain and exit (if it allows that)

   Retries with exponential backoff + deterministic jitter on connect
   failures and typed overload rejections. --inject deliberately
   misbehaves on the wire (torn frames, garbage, hostile headers, drip-fed
   bytes) to probe the daemon's fault tolerance from the outside.

   Exit codes: 0 success, 1 failure/transport error, 2 usage,
   3 rejected by the daemon, 4 deadline expired. *)

open Cmdliner

let connect_arg =
  let doc = "Daemon address ($(b,unix:)path or $(b,tcp:)host:port)." in
  Arg.(
    value
    & opt string "unix:/tmp/pgserve.sock"
    & info [ "connect"; "c" ] ~docv:"ADDR" ~doc)

let op_arg =
  let ops =
    [
      ("ping", `Ping);
      ("health", `Health);
      ("metrics", `Metrics);
      ("solve", `Solve);
      ("update", `Update);
      ("diagnose", `Diagnose);
      ("shutdown", `Shutdown);
    ]
  in
  let doc =
    Printf.sprintf "Operation: %s." (String.concat ", " (List.map fst ops))
  in
  Arg.(required & pos 0 (some (enum ops)) None & info [] ~docv:"OP" ~doc)

let case_arg =
  Arg.(
    value & opt string "pg01"
    & info [ "case" ] ~docv:"ID" ~doc:"Suite case id to solve server-side.")

(* One ECO edit for the [update] op, colon-separated to stay
   shell-friendly: "set-conductance:U:V:SIEMENS",
   "scale-conductance:U:V:FACTOR", "add-resistor:U:V:SIEMENS",
   "set-excess:NODE:SIEMENS", "set-load:NODE:AMPS". *)
let edit_of_spec s =
  let fail () =
    Error
      (Printf.sprintf
         "bad --edit %S (want kind:node(s):value, e.g. set-load:7:0.02 or \
          scale-conductance:3:4:2.0)"
         s)
  in
  let int s = int_of_string_opt s and num s = float_of_string_opt s in
  match String.split_on_char ':' s with
  | [ "set-conductance"; u; v; w ] -> (
    match (int u, int v, num w) with
    | Some u, Some v, Some siemens ->
      Ok (Sddm.Edit.Set_conductance { u; v; siemens })
    | _ -> fail ())
  | [ "scale-conductance"; u; v; f ] -> (
    match (int u, int v, num f) with
    | Some u, Some v, Some factor ->
      Ok (Sddm.Edit.Scale_conductance { u; v; factor })
    | _ -> fail ())
  | [ "add-resistor"; u; v; w ] -> (
    match (int u, int v, num w) with
    | Some u, Some v, Some siemens ->
      Ok (Sddm.Edit.Add_resistor { u; v; siemens })
    | _ -> fail ())
  | [ "set-excess"; node; w ] -> (
    match (int node, num w) with
    | Some node, Some siemens -> Ok (Sddm.Edit.Set_excess { node; siemens })
    | _ -> fail ())
  | [ "set-load"; node; a ] -> (
    match (int node, num a) with
    | Some node, Some amps -> Ok (Sddm.Edit.Set_load { node; amps })
    | _ -> fail ())
  | _ -> fail ()

let edits_arg =
  let doc =
    "ECO edit for the $(b,update) op (repeatable, applied in order): \
     $(b,set-conductance:U:V:S), $(b,scale-conductance:U:V:F), \
     $(b,add-resistor:U:V:S), $(b,set-excess:NODE:S), \
     $(b,set-load:NODE:A). An update with no edits re-solves the \
     session's current state."
  in
  Arg.(value & opt_all string [] & info [ "edit" ] ~docv:"SPEC" ~doc)

let scale_arg =
  Arg.(
    value & opt float 0.1
    & info [ "scale" ] ~docv:"S" ~doc:"Suite case size multiplier.")

let mtx_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mtx" ] ~docv:"FILE"
        ~doc:"Solve this MatrixMarket file (server-side path) instead of a \
              suite case.")

let solver_arg =
  let doc =
    Printf.sprintf "Solver: %s."
      (String.concat ", " (List.map fst Proto.solver_names))
  in
  Arg.(
    value
    & opt (enum Proto.solver_names) Proto.Powerrchol
    & info [ "solver"; "s" ] ~docv:"SOLVER" ~doc)

let rtol_arg =
  Arg.(
    value & opt float 1e-6
    & info [ "rtol" ] ~docv:"TOL" ~doc:"PCG relative residual tolerance.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Factorization seed.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request budget in milliseconds, measured from server-side \
           admission; propagated into the iteration loops as cooperative \
           cancellation. 0 expires immediately (deterministic timeout).")

let robust_arg =
  Arg.(
    value & flag
    & info [ "robust" ]
        ~doc:"Route through the hardened diagnose-escalate-verify chain.")

let want_x_arg =
  Arg.(
    value & flag
    & info [ "want-x" ] ~doc:"Fetch the solution vector with the reply.")

let retries_arg =
  Arg.(
    value & opt int 4
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts (including the first) for connect failures and \
           typed overload rejections; exponential backoff with \
           deterministic jitter between attempts.")

let timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-frame I/O budget.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the raw JSON response on stdout.")

let prom_arg =
  Arg.(
    value & flag
    & info [ "prom" ]
        ~doc:
          "With the $(b,metrics) or $(b,health) op: render the report as \
           Prometheus text format 0.0.4 instead of JSON.")

let inject_arg =
  let modes =
    [
      ("none", `None);
      ("garbage", `Garbage);
      ("truncate", `Truncate);
      ("oversized", `Oversized);
      ("stall", `Stall);
      ("disconnect", `Disconnect);
    ]
  in
  let doc =
    "Fault injection: send a $(b,garbage) payload, a $(b,truncate)d frame, \
     an $(b,oversized) length header, a $(b,stall)ed drip-fed frame, or \
     $(b,disconnect) mid-request — then report how the daemon reacted."
  in
  Arg.(value & opt (enum modes) `None & info [ "inject" ] ~docv:"MODE" ~doc)

let stall_arg =
  Arg.(
    value & opt float 0.05
    & info [ "inject-stall" ] ~docv:"SECONDS"
        ~doc:"Pause between drip-fed chunks for --inject stall.")

(* ---- response rendering ---- *)

let print_response ~json resp =
  if json then
    print_endline (Obs.Json.to_string ~indent:true (Proto.response_to_json resp))
  else begin
    match resp with
    | Proto.Pong -> print_endline "pong"
    | Proto.Bye -> print_endline "bye (daemon draining)"
    | Proto.Health_report j ->
      print_endline (Obs.Json.to_string ~indent:true j)
    | Proto.Solved { solver; iterations; residual; status; converged;
                     t_solve_ms; cache_hit; x } ->
      Printf.printf
        "solved by %s: %d iterations, residual %.3e, %s%s (%.1f ms%s)\n"
        solver iterations residual status
        (if converged then "" else " [NOT CONVERGED]")
        t_solve_ms
        (if cache_hit then ", cached factorization" else "");
      (match x with
       | None -> ()
       | Some x ->
         let k = min 4 (Array.length x) in
         Printf.printf "x: n=%d, first %d: %s\n" (Array.length x) k
           (String.concat ", "
              (List.init k (fun i -> Printf.sprintf "%.6e" x.(i)))))
    | Proto.Updated
        {
          session;
          version;
          rung;
          iterations;
          residual;
          converged;
          t_update_ms;
          t_solve_ms;
          x;
        } ->
      Printf.printf
        "updated session %d to version %d via %s rung: %d iterations, \
         residual %.3e%s (update %.1f ms + solve %.1f ms)\n"
        session version rung iterations residual
        (if converged then "" else " [NOT CONVERGED]")
        t_update_ms t_solve_ms;
      (match x with
       | None -> ()
       | Some x ->
         let k = min 4 (Array.length x) in
         Printf.printf "x: n=%d, first %d: %s\n" (Array.length x) k
           (String.concat ", "
              (List.init k (fun i -> Printf.sprintf "%.6e" x.(i)))))
    | Proto.Diagnosed { fatal; issues } ->
      Printf.printf "diagnosed: %s\n"
        (if fatal then "FATAL" else "clean/recoverable");
      List.iter (fun i -> Printf.printf "  - %s\n" i) issues
    | Proto.Rejected { reason } -> Printf.printf "rejected: %s\n" reason
    | Proto.Timed_out { elapsed_ms } ->
      Printf.printf "timed out after %.1f ms\n" elapsed_ms
    | Proto.Failed { reason } -> Printf.printf "failed: %s\n" reason
  end

let exit_code = function
  | Proto.Solved { converged; _ } -> if converged then 0 else 1
  | Proto.Updated { converged; _ } -> if converged then 0 else 1
  | Proto.Diagnosed { fatal; _ } -> if fatal then 1 else 0
  | Proto.Pong | Proto.Bye | Proto.Health_report _ -> 0
  | Proto.Rejected _ -> 3
  | Proto.Timed_out _ -> 4
  | Proto.Failed _ -> 1

(* ---- fault injection ---- *)

let run_inject addr mode stall timeout =
  match Serve.Client.connect addr with
  | Error e ->
    Printf.eprintf "pgclient: connect: %s\n" e;
    exit 1
  | Ok fd ->
    let payload = Proto.request_to_string Proto.Ping in
    let describe, expect_reply =
      match mode with
      | `Garbage ->
        Serve.Fault.send_garbage_frame fd;
        ("garbage frame", true)
      | `Truncate ->
        Serve.Fault.send_truncated_frame fd payload;
        (* leave the torn frame hanging: the daemon's io deadline fires *)
        ("truncated frame", true)
      | `Oversized ->
        Serve.Fault.send_oversized_header fd;
        ("oversized header", true)
      | `Stall ->
        Serve.Fault.send_stalled_frame ~stall ~chunk:4 fd payload;
        ("drip-fed frame", true)
      | `Disconnect ->
        Serve.Fault.disconnect_mid_request fd payload;
        ("mid-request disconnect", false)
      | `None -> assert false
    in
    Printf.printf "injected: %s\n" describe;
    if expect_reply then begin
      (match Proto.read_frame ~deadline:(Obs.now () +. timeout) fd with
       | Ok s -> (
         match Proto.response_of_string s with
         | Ok resp ->
           print_string "daemon answered: ";
           print_response ~json:false resp
         | Error e -> Printf.printf "daemon answered undecodable frame: %s\n" e)
       | Error e ->
         Printf.printf "daemon reaction: %s\n" (Proto.io_error_to_string e));
      Serve.Client.close fd
    end;
    exit 0

(* ---- main ---- *)

let run connect op case scale mtx solver rtol seed deadline_ms robust want_x
    edits retries timeout json prom inject stall =
  match Proto.addr_of_string connect with
  | Error e ->
    Printf.eprintf "pgclient: bad --connect address: %s\n" e;
    exit 2
  | Ok addr -> (
    if inject <> `None then run_inject addr inject stall timeout;
    let spec =
      match mtx with
      | Some path -> Proto.Mtx { path }
      | None -> Proto.Case { id = case; scale }
    in
    let req =
      match op with
      | `Ping -> Proto.Ping
      | `Health | `Metrics -> Proto.Health
      | `Shutdown -> Proto.Shutdown
      | `Diagnose -> Proto.Diagnose { spec }
      | `Solve ->
        Proto.solve ~solver ~rtol ~seed ?deadline_ms ~robust ~want_x spec
      | `Update ->
        let edits =
          List.map
            (fun spec ->
              match edit_of_spec spec with
              | Ok e -> e
              | Error msg ->
                Printf.eprintf "pgclient: %s\n" msg;
                exit 2)
            edits
        in
        Proto.update ~rtol ~seed ?deadline_ms ~want_x ~edits spec
    in
    let retry = { Serve.Client.default_retry with Serve.Client.attempts = max 1 retries } in
    match Serve.Client.call ~retry ~seed ~io_timeout:timeout addr req with
    | Error e ->
      Printf.eprintf "pgclient: %s\n" e;
      exit 1
    | Ok resp -> (
      match resp with
      | Proto.Health_report j when prom -> (
        match Serve.Health.to_prom j with
        | Ok text ->
          print_string text;
          exit 0
        | Error e ->
          Printf.eprintf "pgclient: %s\n" e;
          exit 1)
      | _ ->
        print_response ~json resp;
        exit (exit_code resp)))

let cmd =
  let doc = "Client for the pgserve solver daemon." in
  Cmd.v
    (Cmd.info "pgclient" ~doc)
    Term.(
      const run $ connect_arg $ op_arg $ case_arg $ scale_arg $ mtx_arg
      $ solver_arg $ rtol_arg $ seed_arg $ deadline_arg $ robust_arg
      $ want_x_arg $ edits_arg $ retries_arg $ timeout_arg $ json_arg
      $ prom_arg $ inject_arg $ stall_arg)

let () = exit (Cmd.eval cmd)
