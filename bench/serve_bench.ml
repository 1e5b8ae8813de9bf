(* Load-generator bench for the pgserve daemon: an in-process daemon on a
   private Unix socket, hammered by concurrent client threads for a fixed
   wall-clock window. Records sustained req/s, client-observed latency
   percentiles, and the typed-outcome accounting (every request must end
   in exactly one typed response — the robustness invariant the serve
   tests enforce, here checked under sustained load and gated by
   bench/compare.exe on the "serve" section of bench.json).

   A second phase measures observability overhead: the same load against
   a baseline daemon (Obs disabled, no access log) and an instrumented
   daemon (Obs enabled, access log on), in interleaved A B B A slices so
   machine drift cancels. compare.exe gates the req/s ratio
   (baseline / instrumented) at BENCH_OBS_OVERHEAD (default 1.03).

   Environment:
     BENCH_SERVE_SECONDS   measurement window (default 2.0)
     BENCH_SERVE_CLIENTS   concurrent client threads (default 4)
     BENCH_SERVE_SCALE     suite-case scale for the solved case
                           (default 0.05; the factorization is prepared
                           once during warmup, so the window measures the
                           steady state the daemon is designed for) *)

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let seconds = getenv_float "BENCH_SERVE_SECONDS" 2.0
let clients = getenv_int "BENCH_SERVE_CLIENTS" 4
let case_scale = getenv_float "BENCH_SERVE_SCALE" 0.05

type tally = {
  hist : Obs.Hist.t;
  mutable solved : int;
  mutable unconverged : int;
  mutable rejected : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable untyped : int;  (** transport errors: gated to zero *)
}

let fresh_tally () =
  {
    hist = Obs.Hist.create ();
    solved = 0;
    unconverged = 0;
    rejected = 0;
    timed_out = 0;
    failed = 0;
    untyped = 0;
  }

let total t =
  t.solved + t.unconverged + t.rejected + t.timed_out + t.failed + t.untyped

let bench_sock tag =
  Proto.Unix_sock
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "pgserve-bench-%s-%d.sock" tag (Unix.getpid ())))

(* One fixed-wall-clock load window: [clients] threads against [addr].
   Returns the per-client tallies and the true elapsed time. *)
let load_window ~addr ~req ~window ~clients =
  let stop_at = Obs.now () +. window in
  let tallies = Array.init clients (fun _ -> fresh_tally ()) in
  let worker i =
    let t = tallies.(i) in
    while Obs.now () < stop_at do
      let t0 = Obs.now () in
      let outcome =
        Serve.Client.call ~retry:Serve.Client.no_retry ~seed:(1000 + i)
          ~io_timeout:10.0 addr req
      in
      Obs.Hist.add t.hist (Obs.now () -. t0);
      match outcome with
      | Ok (Proto.Solved { converged = true; _ }) -> t.solved <- t.solved + 1
      | Ok (Proto.Solved _) -> t.unconverged <- t.unconverged + 1
      | Ok (Proto.Rejected _) -> t.rejected <- t.rejected + 1
      | Ok (Proto.Timed_out _) -> t.timed_out <- t.timed_out + 1
      | Ok _ | Error _ -> (
        match outcome with
        | Ok (Proto.Failed _) -> t.failed <- t.failed + 1
        | _ -> t.untyped <- t.untyped + 1)
    done
  in
  let t_start = Obs.now () in
  let threads = Array.init clients (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  (tallies, Obs.now () -. t_start)

let warmup addr req =
  match Serve.Client.call ~retry:Serve.Client.no_retry addr req with
  | Ok (Proto.Solved _) -> ()
  | Ok r -> Printf.printf "warmup answered %s\n" (Proto.response_to_string r)
  | Error e -> Printf.printf "warmup failed: %s\n" e

(* ---- observability overhead: baseline vs instrumented ---- *)

(* Interleaved A B B A half-windows against two daemons sharing the
   process: slice order cancels first-order machine drift, and only one
   daemon takes load at a time so the global Obs switch can differ
   between them. Returns the JSON sub-document for the serve section. *)
let measure_overhead ~req =
  let obs_was = Obs.enabled () in
  let log_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pgserve-bench-access-%d.log" (Unix.getpid ()))
  in
  let base_addr = bench_sock "base" and instr_addr = bench_sock "instr" in
  let config addr access_log =
    {
      (Serve.Daemon.default_config addr) with
      Serve.Daemon.queue_capacity = 8;
      access_log;
    }
  in
  match
    ( Serve.Daemon.start (config base_addr None),
      Serve.Daemon.start (config instr_addr (Some log_path)) )
  with
  | Error e, _ | _, Error e ->
    Printf.printf "overhead phase skipped: %s\n" e;
    None
  | Ok base, Ok instr ->
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled obs_was;
        Serve.Daemon.stop base;
        Serve.Daemon.stop instr;
        try Sys.remove log_path with Sys_error _ -> ())
      (fun () ->
        warmup base_addr req;
        warmup instr_addr req;
        let slice = Float.max 0.25 (seconds /. 2.0) in
        let run_slice enable addr =
          Obs.set_enabled enable;
          let tallies, elapsed = load_window ~addr ~req ~window:slice ~clients in
          (Array.fold_left (fun a t -> a + total t) 0 tallies, elapsed)
        in
        let base_slices = ref [] and instr_slices = ref [] in
        let slice_base () =
          base_slices := run_slice false base_addr :: !base_slices
        and slice_instr () =
          instr_slices := run_slice true instr_addr :: !instr_slices
        in
        slice_base ();
        slice_instr ();
        slice_instr ();
        slice_base ();
        let tot slices =
          List.fold_left
            (fun (n, s) (ni, si) -> (n + ni, s +. si))
            (0, 0.0) !slices
        in
        let base_n, base_s = tot base_slices in
        let instr_n, instr_s = tot instr_slices in
        let rate n s = if s > 0.0 then float_of_int n /. s else 0.0 in
        let base_req_s = rate base_n base_s in
        let instr_req_s = rate instr_n instr_s in
        let ratio =
          if instr_req_s > 0.0 then base_req_s /. instr_req_s else 0.0
        in
        Printf.printf
          "observability overhead: baseline %.1f req/s (%d), instrumented \
           %.1f req/s (%d), ratio %.3f\n"
          base_req_s base_n instr_req_s instr_n ratio;
        Some
          (Obs.Json.Obj
             [
               ("slice_seconds", Obs.Json.Float slice);
               ("base_requests", Obs.Json.Int base_n);
               ("base_req_s", Obs.Json.Float base_req_s);
               ("instr_requests", Obs.Json.Int instr_n);
               ("instr_req_s", Obs.Json.Float instr_req_s);
               ("ratio", Obs.Json.Float ratio);
             ]))

let run () =
  Runner.header
    (Printf.sprintf
       "pgserve sustained load: %d clients for %.1f s (case pg01 @ %.2f)"
       clients seconds case_scale);
  let addr = bench_sock "load" in
  let config =
    { (Serve.Daemon.default_config addr) with Serve.Daemon.queue_capacity = 8 }
  in
  match Serve.Daemon.start config with
  | Error e -> Printf.printf "serve bench skipped: %s\n" e
  | Ok daemon ->
    let req = Proto.solve (Proto.Case { id = "pg01"; scale = case_scale }) in
    let section =
      Fun.protect
        ~finally:(fun () -> Serve.Daemon.stop daemon)
        (fun () ->
          (* warmup fills the daemon's problem table so the window
             measures the factor-once / solve-many steady state *)
          warmup addr req;
          let tallies, elapsed =
            load_window ~addr ~req ~window:seconds ~clients
          in
          let merged = Array.to_list tallies in
          let sum f = List.fold_left (fun a t -> a + f t) 0 merged in
          let hist =
            List.fold_left
              (fun acc t -> Obs.Hist.merge acc t.hist)
              (Obs.Hist.create ()) merged
          in
          let n = sum total in
          let req_s = float_of_int n /. elapsed in
          let pct p = Obs.Hist.percentile hist p *. 1000.0 in
          Printf.printf
            "%d requests in %.2f s: %.1f req/s\n\
             latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n\
             outcomes: %d solved, %d unconverged, %d rejected, %d timed out, \
             %d failed, %d untyped\n"
            n elapsed req_s (pct 50.0) (pct 95.0) (pct 99.0)
            (sum (fun t -> t.solved))
            (sum (fun t -> t.unconverged))
            (sum (fun t -> t.rejected))
            (sum (fun t -> t.timed_out))
            (sum (fun t -> t.failed))
            (sum (fun t -> t.untyped));
          [
            ("clients", Obs.Json.Int clients);
            ("seconds", Obs.Json.Float elapsed);
            ("case_scale", Obs.Json.Float case_scale);
            ("requests", Obs.Json.Int n);
            ("req_s", Obs.Json.Float req_s);
            ("p50_ms", Obs.Json.Float (pct 50.0));
            ("p95_ms", Obs.Json.Float (pct 95.0));
            ("p99_ms", Obs.Json.Float (pct 99.0));
            ("solved", Obs.Json.Int (sum (fun t -> t.solved)));
            ("unconverged", Obs.Json.Int (sum (fun t -> t.unconverged)));
            ("rejected", Obs.Json.Int (sum (fun t -> t.rejected)));
            ("timed_out", Obs.Json.Int (sum (fun t -> t.timed_out)));
            ("failed", Obs.Json.Int (sum (fun t -> t.failed)));
            ("untyped", Obs.Json.Int (sum (fun t -> t.untyped)));
          ])
    in
    let req = Proto.solve (Proto.Case { id = "pg01"; scale = case_scale }) in
    let overhead =
      match measure_overhead ~req with
      | Some doc -> [ ("overhead", doc) ]
      | None -> []
    in
    Runner.record_serve (Obs.Json.Obj (section @ overhead))
