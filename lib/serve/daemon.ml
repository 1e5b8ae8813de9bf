type config = {
  addr : Proto.addr;
  queue_capacity : int;
  max_connections : int;
  idle_timeout : float;
  io_timeout : float;
  max_frame : int;
  artificial_delay : float;
  allow_shutdown : bool;
  max_iter : int;
  scale_cap : float;
  metrics_addr : Proto.addr option;
  access_log : string option;
  access_log_max_bytes : int;
}

let default_config addr =
  {
    addr;
    queue_capacity = 32;
    max_connections = 64;
    idle_timeout = 30.0;
    io_timeout = 10.0;
    max_frame = Proto.default_max_frame;
    artificial_delay = 0.0;
    allow_shutdown = false;
    max_iter = 500;
    scale_cap = 1.0;
    metrics_addr = None;
    access_log = None;
    access_log_max_bytes = 10 * 1024 * 1024;
  }

type stats = {
  mutable accepted_conns : int;
  mutable rejected_conns : int;
  mutable requests : int;
  mutable solved : int;
  mutable unconverged : int;
  mutable updated : int;
  mutable diagnosed : int;
  mutable failed : int;
  mutable timed_out : int;
  mutable shed : int;
  mutable rejected : int;
  mutable bad_request : int;
  mutable io_errors : int;
}

(* The problem table: one entry per request spec, keyed by what the spec
   names. A suite case is its id and exact scale; a MatrixMarket file is
   its path and a digest of its bytes, so a rewritten file is a new key.
   An entry holds the built problem, its prepared handles by (solver,
   seed) and its ECO sessions by seed, each with the number the daemon
   gave it when it opened it. *)
type key = Case_key of string * float | Mtx_key of string * Digest.t

type entry = {
  problem : Sddm.Problem.t;
  handles : (Proto.solver * int, Powerrchol.Solver.prepared) Hashtbl.t;
  sessions : (int, int * Powerrchol.Engine.Session.t) Hashtbl.t;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;  (* guards stats, counters, histograms below *)
  solve_lock : Mutex.t;
      (* the single solve lane: the problem table and solver internals are
         not thread-safe, so admitted jobs run one at a time *)
  stats : stats;
  latency : Obs.Hist.t;  (* service seconds per admitted request *)
  queue_wait : Obs.Hist.t;  (* seconds spent waiting for the solve lane *)
  started : float;
  mutable stop_flag : bool;
  mutable active_conns : int;
  mutable inflight : int;  (* admitted-but-unfinished solve/diagnose jobs *)
  mutable accept_thread : Thread.t option;
  table : (key, entry) Hashtbl.t;
      (* read and written only while holding the solve lane; every write,
         and the fields below, also under [lock], so metrics can read
         them from any thread *)
  mutable handle_order : (key * (Proto.solver * int)) list;
      (* every handle in the table, most recently used first *)
  mutable session_order : (key * int) list;
      (* every session in the table, newest first *)
  mutable sessions_opened : int;  (* the number of the newest session *)
  mutable hits : int;  (* Solve lookups that found their handle *)
  mutable misses : int;
  mutable evictions : int;  (* handles dropped by the LRU cap *)
  (* request ids: boot tag + monotonic sequence, minted per frame *)
  boot_tag : string;
  mutable req_seq : int;
  (* rolling windows (guarded by [lock], like the lifetime hists) *)
  w_requests : Obs.Window.t;
  w_fallbacks : Obs.Window.t;
  w_errors : Obs.Window.t;
  w_latency : Obs.Window.hist;
  (* fallback / rung surfacing (guarded by [lock]) *)
  mutable fb_engaged : int;
  mutable fb_escalations : int;
  mutable fb_last_rung : string;
  mutable fb_last_residual : float;
  fb_rungs : (string, int) Hashtbl.t;
  mutable fb_rung_order : string list;  (* first-won order, newest first *)
  (* structured access log (its own lock: log writes must not contend
     with the metrics path) *)
  log_lock : Mutex.t;
  mutable log_chan : out_channel option;
  mutable log_bytes : int;
  (* metrics listener *)
  mutable metrics_bound : Proto.addr option;
  mutable metrics_thread : Thread.t option;
}

let addr t = t.config.addr
let stopping t = t.stop_flag
let request_stop t = t.stop_flag <- true

let locked t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let bump t f = locked t (fun () -> f t.stats)
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- request ids ---- *)

(* "<boot>-<seq>": the boot tag makes ids unique across restarts, the
   sequence across requests. The same id names the request everywhere:
   access-log line, Obs span tree (path "req/<id>/..."), error text. *)
let next_request_id t =
  locked t (fun () ->
      t.req_seq <- t.req_seq + 1;
      Printf.sprintf "%s-%06d" t.boot_tag t.req_seq)

(* ---- fallback / rung surfacing ---- *)

(* Record which rung answered a request (robust-chain winner or ECO
   update rung) and how many escalations it took to get there. *)
let note_rung t ?(escalations = 0) ?residual rung =
  locked t (fun () ->
      if escalations > 0 then begin
        t.fb_engaged <- t.fb_engaged + 1;
        t.fb_escalations <- t.fb_escalations + escalations;
        Obs.Window.add t.w_fallbacks (float_of_int escalations)
      end;
      if rung <> "" then begin
        t.fb_last_rung <- rung;
        (match Hashtbl.find_opt t.fb_rungs rung with
         | Some n -> Hashtbl.replace t.fb_rungs rung (n + 1)
         | None ->
           Hashtbl.add t.fb_rungs rung 1;
           t.fb_rung_order <- rung :: t.fb_rung_order);
        match residual with
        | Some r -> t.fb_last_residual <- r
        | None -> ()
      end)

(* ---- structured access log ---- *)

let log_open_quiet path =
  try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
  with Sys_error _ -> None

(* One JSONL line per request, written after the response frame. Size-
   based rotation: when the next line would cross the cap, FILE is
   renamed to FILE.1 (replacing any previous FILE.1) and reopened. *)
let access_log_write t line =
  match t.config.access_log with
  | None -> ()
  | Some path ->
    Mutex.lock t.log_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.log_lock)
      (fun () ->
        (match t.log_chan with
         | Some _ -> ()
         | None ->
           t.log_chan <- log_open_quiet path;
           t.log_bytes <-
             (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0));
        let len = String.length line + 1 in
        (match t.log_chan with
         | Some oc
           when t.log_bytes > 0
                && t.log_bytes + len > t.config.access_log_max_bytes ->
           close_out_noerr oc;
           (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
           t.log_chan <- log_open_quiet path;
           t.log_bytes <- 0
         | _ -> ());
        match t.log_chan with
        | None -> ()
        | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc;
          t.log_bytes <- t.log_bytes + len)

let access_log_close t =
  Mutex.lock t.log_lock;
  (match t.log_chan with Some oc -> close_out_noerr oc | None -> ());
  t.log_chan <- None;
  Mutex.unlock t.log_lock

let op_name = function
  | Proto.Ping -> "ping"
  | Proto.Health -> "health"
  | Proto.Shutdown -> "shutdown"
  | Proto.Solve _ -> "solve"
  | Proto.Update _ -> "update"
  | Proto.Diagnose _ -> "diagnose"

let outcome_name = function
  | Proto.Pong -> "pong"
  | Proto.Bye -> "bye"
  | Proto.Health_report _ -> "health"
  | Proto.Solved { converged; _ } ->
    if converged then "solved" else "unconverged"
  | Proto.Updated { converged; _ } ->
    if converged then "updated" else "unconverged"
  | Proto.Diagnosed _ -> "diagnosed"
  | Proto.Rejected _ -> "rejected"
  | Proto.Timed_out _ -> "timed_out"
  | Proto.Failed _ -> "failed"

let access_line ~id ~op ~resp ~bytes_in ~bytes_out ~t_recv =
  let open Obs.Json in
  let opt_str = function Some s -> Str s | None -> Null in
  let reason, rung, iterations, residual =
    match resp with
    | Proto.Rejected { reason } | Proto.Failed { reason } ->
      (Some reason, None, None, None)
    | Proto.Solved { solver; iterations; residual; _ } ->
      (None, Some solver, Some iterations, Some residual)
    | Proto.Updated { rung; iterations; residual; _ } ->
      (None, Some rung, Some iterations, Some residual)
    | _ -> (None, None, None, None)
  in
  to_string
    (Obj
       [
         ("ts", Float t_recv);
         ("id", Str id);
         ("op", Str op);
         ("outcome", Str (outcome_name resp));
         ("reason", opt_str reason);
         ("rung", opt_str rung);
         ( "iterations",
           match iterations with Some i -> Int i | None -> Null );
         ("residual", match residual with Some r -> Float r | None -> Null);
         ("bytes_in", Int bytes_in);
         ("bytes_out", Int bytes_out);
         ("latency_ms", Float ((Obs.now () -. t_recv) *. 1000.0));
       ])

(* ---- the problem table ---- *)

(* The raw (A, b) of a MatrixMarket file, b a fixed pseudo-random load.
   The file must still digest to [digest] after the read, so a file
   rewritten mid-read never enters the table under its old key. *)
let read_mtx path digest =
  try
    let a = Sparse.Matrix_market.read path in
    if Digest.file path <> digest then
      Error (Printf.sprintf "%s changed while it was read" path)
    else begin
      let n, _ = Sparse.Csc.dims a in
      let rng = Rng.create 1 in
      Ok (a, Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5))
    end
  with
  | Sys_error msg
  | Sparse.Matrix_market.Parse_error msg
  | Failure msg
  | Invalid_argument msg ->
    Error msg

let build = function
  | Case_key (id, scale) -> (
    match Powergrid.Suite.find ~scale id with
    | c -> Ok (c.Powergrid.Suite.build ())
    | exception Not_found -> Error (Printf.sprintf "unknown suite case %S" id))
  | Mtx_key (path, digest) ->
    Result.bind (read_mtx path digest) (fun (a, b) ->
        try Ok (Sddm.Problem.of_matrix ~name:(Filename.basename path) ~a ~b)
        with Invalid_argument msg -> Error msg)

(* A spec's table key. Every spec passes through here, so this is where
   the scale cap is checked. *)
let key_of_spec t = function
  | Proto.Case { id; scale } ->
    if scale <= t.config.scale_cap then Ok (Case_key (id, scale))
    else begin
      bump t (fun s -> s.rejected <- s.rejected + 1);
      Error
        (Proto.Rejected
           {
             reason =
               Printf.sprintf "bad-request: scale exceeds this daemon's cap %g"
                 t.config.scale_cap;
           })
    end
  | Proto.Mtx { path } -> (
    match Digest.file path with
    | digest -> Ok (Mtx_key (path, digest))
    | exception Sys_error reason -> Error (Proto.Failed { reason }))

(* A key's problem: its entry's on a hit, else a fresh build, which enters
   the table once a handle or a session is added to it. *)
let problem_of t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> Ok e.problem
  | None -> Result.map_error (fun reason -> Proto.Failed { reason }) (build key)

let resolve t spec =
  Result.bind (key_of_spec t spec) (fun key ->
      Result.map (fun problem -> (key, problem)) (problem_of t key))

(* The writers below hold [lock] as well as the solve lane. *)

let entry_for t key problem =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e =
      { problem; handles = Hashtbl.create 4; sessions = Hashtbl.create 2 }
    in
    Hashtbl.replace t.table key e;
    e

(* An entry that holds neither a handle nor a session leaves the table. *)
let drop_if_empty t key e =
  if Hashtbl.length e.handles = 0 && Hashtbl.length e.sessions = 0 then
    Hashtbl.remove t.table key

(* The last element of an order list longer than [cap], and the rest. *)
let past_cap cap order =
  if List.length order <= cap then None
  else
    match List.rev order with
    | [] -> None
    | last :: rest -> Some (last, List.rev rest)

(* Look a handle up, counting a hit or a miss; a hit becomes the most
   recently used handle. *)
let find_handle t key hkey =
  let found =
    Option.bind (Hashtbl.find_opt t.table key) (fun e ->
        Hashtbl.find_opt e.handles hkey)
  in
  locked t (fun () ->
      (match found with
       | Some _ ->
         t.hits <- t.hits + 1;
         t.handle_order <-
           (key, hkey) :: List.filter (( <> ) (key, hkey)) t.handle_order
       | None -> t.misses <- t.misses + 1);
      found)

(* Handles hold O(factor nnz) floats, so the table keeps at most this
   many across all entries. *)
let max_handles = 8

(* Open ECO sessions, across all entries; past it the oldest is closed. *)
let max_sessions = 4

(* Enter a fresh handle. Past max_handles handles in the whole table, the
   least recently used one is dropped. *)
let add_handle t key problem hkey prepared =
  locked t (fun () ->
      Hashtbl.replace (entry_for t key problem).handles hkey prepared;
      t.handle_order <- (key, hkey) :: t.handle_order;
      Option.iter
        (fun ((key, hkey), rest) ->
          t.handle_order <- rest;
          let e = Hashtbl.find t.table key in
          Hashtbl.remove e.handles hkey;
          t.evictions <- t.evictions + 1;
          drop_if_empty t key e)
        (past_cap max_handles t.handle_order))

(* The entry's ECO session for [seed] and its number, opened on first use
   and numbered from the daemon's count. Opening one past max_sessions
   drops the oldest (FIFO); a later update on that spec opens a fresh
   one under a new number. *)
let find_session t key problem seed =
  match
    Option.bind (Hashtbl.find_opt t.table key) (fun e ->
        Hashtbl.find_opt e.sessions seed)
  with
  | Some s -> s
  | None ->
    let s = Powerrchol.Engine.Session.create ~seed problem in
    locked t (fun () ->
        t.sessions_opened <- t.sessions_opened + 1;
        let numbered = (t.sessions_opened, s) in
        Hashtbl.replace (entry_for t key problem).sessions seed numbered;
        t.session_order <- (key, seed) :: t.session_order;
        Option.iter
          (fun ((key, seed), rest) ->
            t.session_order <- rest;
            let e = Hashtbl.find t.table key in
            Hashtbl.remove e.sessions seed;
            drop_if_empty t key e)
          (past_cap max_sessions t.session_order);
        numbered)

let solver_of_tag ~seed = function
  | Proto.Powerrchol -> Powerrchol.Solver.powerrchol ~seed ()
  | Proto.Rchol -> Powerrchol.Solver.rchol ~seed ()
  | Proto.Lt_rchol -> Powerrchol.Solver.lt_rchol ~seed ()
  | Proto.Fegrass -> Powerrchol.Solver.fegrass ()
  | Proto.Fegrass_ichol -> Powerrchol.Solver.fegrass_ichol ()
  | Proto.Amg -> Powerrchol.Solver.amg_pcg ()
  | Proto.Direct -> Powerrchol.Solver.direct ()

(* ---- request execution (already admitted, holding the solve lane) ---- *)

let elapsed_ms t_recv = (Obs.now () -. t_recv) *. 1000.0

let exec_solve t ~t_recv ~spec ~tag ~rtol ~seed ~deadline ~robust ~want_x =
  match resolve t spec with
  | Error resp -> resp
  | Ok (key, problem) ->
    if robust then begin
      (* the chain's first rung is this seed's powerrchol preparation:
         lend it the entry's handle, but never prepare one outside the
         chain, so a factorization breakdown still escalates *)
      let prepared = find_handle t key (Proto.Powerrchol, seed) in
      let r =
        Powerrchol.Solver.solve_robust ~rtol ~seed ?deadline ?prepared problem
      in
      match r.Powerrchol.Solver.outcome with
      | Powerrchol.Solver.Robust_solved
          { x; winner; iterations; residual; attempts } ->
        note_rung t ~escalations:(List.length attempts) ~residual winner;
        Proto.Solved
          {
            solver = winner;
            iterations;
            residual;
            status =
              (if attempts = [] then "converged"
               else
                 Printf.sprintf "converged after %d failed rungs"
                   (List.length attempts));
            converged = true;
            t_solve_ms = elapsed_ms t_recv;
            (* a solved one-island system ran the first rung, which used
               the handle *)
            cache_hit =
              Option.is_some prepared
              && r.Powerrchol.Solver.diagnostics.Robust.Diagnose.components
                 = 1;
            x = (if want_x then Some (Sparse.Vec.to_array x) else None);
          }
      | Powerrchol.Solver.Robust_rejected { reasons } ->
        Proto.Failed
          { reason = "fatal diagnostics: " ^ String.concat "; " reasons }
      | Powerrchol.Solver.Robust_exhausted { attempts } ->
        note_rung t ~escalations:(List.length attempts) "";
        let timed_out =
          List.exists
            (fun (a : Robust.Fallback.attempt) ->
              match a.Robust.Fallback.failure with
              | Robust.Fallback.Timed_out _ -> true
              | _ -> false)
            attempts
          ||
          match deadline with
          | Some d -> Obs.now () > d
          | None -> false
        in
        if timed_out then Proto.Timed_out { elapsed_ms = elapsed_ms t_recv }
        else
          Proto.Failed
            {
              reason =
                Printf.sprintf "all %d rungs exhausted"
                  (List.length attempts);
            }
    end
    else begin
      let hkey = (tag, seed) in
      let p, cache_hit =
        match find_handle t key hkey with
        | Some p -> (p, true)
        | None ->
          let p = Powerrchol.Solver.prepare (solver_of_tag ~seed tag) problem in
          add_handle t key problem hkey p;
          (p, false)
      in
      let r =
        Powerrchol.Solver.solve_prepared ~rtol ~max_iter:t.config.max_iter
          ?deadline p
      in
      match r.Powerrchol.Solver.status with
      | Krylov.Pcg.Timed_out _ ->
        Proto.Timed_out { elapsed_ms = elapsed_ms t_recv }
      | status ->
        Proto.Solved
          {
            solver = r.Powerrchol.Solver.solver;
            iterations = r.Powerrchol.Solver.iterations;
            residual = r.Powerrchol.Solver.residual;
            status = Krylov.Pcg.status_to_string status;
            converged = r.Powerrchol.Solver.converged;
            t_solve_ms = elapsed_ms t_recv;
            cache_hit;
            x =
              (if want_x then
                 Some (Sparse.Vec.to_array r.Powerrchol.Solver.x)
               else None);
          }
    end

let exec_update t ~t_recv ~spec ~edits ~rtol ~seed ~deadline ~want_x =
  match resolve t spec with
  | Error resp -> resp
  | Ok (key, problem) -> (
    let number, session = find_session t key problem seed in
    match Powerrchol.Engine.Session.update session edits with
    | exception Invalid_argument reason -> Proto.Failed { reason }
    | report ->
      let t_update_ms =
        report.Powerrchol.Engine.Session.t_update *. 1000.0
      in
      let t0 = Obs.now () in
      let r =
        Powerrchol.Engine.Session.solve ~rtol ~max_iter:t.config.max_iter
          ?deadline session
      in
      let rung_name =
        Powerrchol.Engine.Session.rung_name
          report.Powerrchol.Engine.Session.rung
      in
      (match r.Powerrchol.Solver.status with
       | Krylov.Pcg.Timed_out _ ->
         Proto.Timed_out { elapsed_ms = elapsed_ms t_recv }
       | _ ->
         note_rung t ~residual:r.Powerrchol.Solver.residual rung_name;
         Proto.Updated
           {
             session = number;
             version = report.Powerrchol.Engine.Session.version;
             rung = rung_name;
             iterations = r.Powerrchol.Solver.iterations;
             residual = r.Powerrchol.Solver.residual;
             converged = r.Powerrchol.Solver.converged;
             t_update_ms;
             t_solve_ms = (Obs.now () -. t0) *. 1000.0;
             x =
               (if want_x then
                  Some (Sparse.Vec.to_array r.Powerrchol.Solver.x)
                else None);
           }))

let exec_diagnose t spec =
  let report =
    Result.bind (key_of_spec t spec) (function
      | Mtx_key (path, digest) as key when not (Hashtbl.mem t.table key) -> (
        (* raw read: diagnosis must see the matrix BEFORE SDDM validation
           would reject it *)
        match read_mtx path digest with
        | Ok (a, b) -> Ok (Robust.Diagnose.run ~a ~b)
        | Error reason -> Error (Proto.Failed { reason }))
      | key -> Result.map Robust.Diagnose.of_problem (problem_of t key))
  in
  match report with
  | Error resp -> resp
  | Ok report ->
    Proto.Diagnosed
      {
        fatal = Robust.Diagnose.has_fatal report;
        issues =
          List.map Robust.Diagnose.issue_to_string
            report.Robust.Diagnose.issues;
      }

(* ---- admission control ---- *)

(* Admit a job into the bounded backlog, wait for the solve lane, re-check
   the deadline (time spent queued counts against the budget), and run.
   Any exception the job leaks becomes a typed [Failed] response — the
   worker lane survives every request. *)
let run_admitted t ~t_recv ~req_id ~deadline f =
  let admit =
    locked t (fun () ->
        if t.stop_flag then `Stopping
        else if t.inflight >= t.config.queue_capacity then `Full
        else begin
          t.inflight <- t.inflight + 1;
          `Admitted
        end)
  in
  match admit with
  | `Stopping ->
    bump t (fun s -> s.rejected <- s.rejected + 1);
    Proto.Rejected { reason = "shutting-down: daemon is draining" }
  | `Full ->
    bump t (fun s -> s.shed <- s.shed + 1);
    Proto.Rejected
      {
        reason =
          Printf.sprintf "overloaded: queue full (capacity %d)"
            t.config.queue_capacity;
      }
  | `Admitted ->
    Fun.protect
      ~finally:(fun () -> locked t (fun () -> t.inflight <- t.inflight - 1))
      (fun () ->
        Mutex.lock t.solve_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.solve_lock)
          (fun () ->
            locked t (fun () ->
                Obs.Hist.add t.queue_wait (Obs.now () -. t_recv));
            match deadline with
            | Some d when Obs.now () > d ->
              Proto.Timed_out { elapsed_ms = elapsed_ms t_recv }
            | _ -> (
              if t.config.artificial_delay > 0.0 then
                Thread.delay t.config.artificial_delay;
              (* the span opens while holding the solve lane, so the
                 root store's span stack is never touched concurrently;
                 the whole solver span tree of this request nests under
                 "req/<id>" — the same id the access-log line carries *)
              try Obs.span ("req/" ^ req_id) f with
              | (Out_of_memory | Stack_overflow) as exn -> raise exn
              | exn -> Proto.Failed { reason = Printexc.to_string exn })))

(* ---- metrics ---- *)

(* One rolling window projected to JSON; runs under [lock]. *)
let window_json t ~now ~label ~span_s =
  let open Obs.Json in
  let requests = Obs.Window.sum ~now t.w_requests ~span_s in
  let fallbacks = Obs.Window.sum ~now t.w_fallbacks ~span_s in
  let errors = Obs.Window.sum ~now t.w_errors ~span_s in
  Obj
    [
      ("label", Str label);
      ("span_s", Float span_s);
      ("requests", Float requests);
      ("req_s", Float (Obs.Window.rate ~now t.w_requests ~span_s));
      ("fallbacks", Float fallbacks);
      ( "fallback_rate",
        Float (if requests > 0.0 then fallbacks /. requests else 0.0) );
      ("errors", Float errors);
      ( "latency_s",
        Obs.Hist.to_json (Obs.Window.merged ~now t.w_latency ~span_s) );
    ]

let metrics t =
  let open Obs.Json in
  let lat, qw, snapshot, windows, fallback =
    locked t (fun () ->
        let s = t.stats in
        let now = Obs.now () in
        ( Obs.Hist.copy t.latency,
          Obs.Hist.copy t.queue_wait,
          ( (s.accepted_conns, s.rejected_conns, t.active_conns),
            ( s.requests,
              s.solved,
              s.unconverged,
              s.updated,
              s.diagnosed,
              s.failed,
              s.timed_out ),
            (s.shed, s.rejected, s.bad_request, s.io_errors),
            (t.inflight, List.length t.session_order),
            (t.hits, t.misses, t.evictions, List.length t.handle_order) ),
          List
            [
              window_json t ~now ~label:"1m" ~span_s:60.0;
              window_json t ~now ~label:"5m" ~span_s:300.0;
              window_json t ~now ~label:"15m" ~span_s:900.0;
            ],
          Obj
            [
              ("engaged", Int t.fb_engaged);
              ("escalations", Int t.fb_escalations);
              ( "last_rung",
                if t.fb_last_rung = "" then Null else Str t.fb_last_rung );
              ( "last_residual",
                if Float.is_finite t.fb_last_residual then
                  Float t.fb_last_residual
                else Null );
              ( "rungs",
                Obj
                  (List.rev_map
                     (fun rung ->
                       (rung, Int (Hashtbl.find t.fb_rungs rung)))
                     t.fb_rung_order) );
            ] ))
  in
  let ( (accepted_conns, rejected_conns, active_conns),
        (requests, solved, unconverged, updated, diagnosed, failed, timed_out),
        (shed, rejected, bad_request, io_errors),
        (inflight, open_sessions),
        (hits, misses, evictions, live_handles) ) =
    snapshot
  in
  Obj
    [
      (* v2 = the exact v1 field set (paths and types unchanged, so v1
         consumers keep parsing their subset) + windows + fallback *)
      ("schema", Str "pgserve-metrics/v2");
      ("uptime_s", Float (Obs.now () -. t.started));
      ( "connections",
        Obj
          [
            ("accepted", Int accepted_conns);
            ("active", Int active_conns);
            ("rejected", Int rejected_conns);
          ] );
      ( "requests",
        Obj
          [
            ("total", Int requests);
            ("solved", Int solved);
            ("unconverged", Int unconverged);
            ("updated", Int updated);
            ("diagnosed", Int diagnosed);
            ("failed", Int failed);
            ("timed_out", Int timed_out);
            ("shed", Int shed);
            ("rejected", Int rejected);
            ("bad_request", Int bad_request);
            ("io_errors", Int io_errors);
          ] );
      ( "queue",
        Obj
          [
            ("capacity", Int t.config.queue_capacity);
            ("inflight", Int inflight);
          ] );
      (* the problem table's handles, under the block's v1 name *)
      ( "engine",
        Obj
          [
            ("hits", Int hits);
            ("misses", Int misses);
            ( "hit_rate",
              Float
                (if hits + misses = 0 then 0.0
                 else float_of_int hits /. float_of_int (hits + misses)) );
            ("evictions", Int evictions);
            ("live_handles", Int live_handles);
          ] );
      ( "sessions",
        Obj
          [
            ("open", Int open_sessions);
            ("capacity", Int max_sessions);
            ("updates", Int updated);
          ] );
      ("latency_s", Obs.Hist.to_json lat);
      ("queue_wait_s", Obs.Hist.to_json qw);
      ("windows", windows);
      ("fallback", fallback);
    ]

let metrics_text t =
  match Health.to_prom (metrics t) with
  | Ok text -> text
  | Error e -> Printf.sprintf "# render error: %s\n" e

(* ---- metrics listener (plain HTTP 1.0, GET /metrics only) ---- *)

(* Deliberately minimal: one request per connection, bounded read of the
   request line, no keep-alive. A Prometheus scraper (or curl) is the
   only intended client; everything else gets a 404/405 and a close. *)

let http_write_all fd msg =
  let rec go off =
    if off < String.length msg then
      match Unix.write_substring fd msg off (String.length msg - off) with
      | 0 -> ()
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let http_respond fd ~status ~content_type body =
  http_write_all fd
    (Printf.sprintf
       "HTTP/1.0 %s\r\n\
        Content-Type: %s\r\n\
        Content-Length: %d\r\n\
        Connection: close\r\n\
        \r\n\
        %s"
       status content_type (String.length body) body)

let read_request_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let deadline = Obs.now () +. 2.0 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Some (String.trim (String.sub (Buffer.contents buf) 0 i))
    | None ->
      if Obs.now () > deadline || Buffer.length buf > 4096 then None
      else begin
        match Unix.select [ fd ] [] [] 0.25 with
        | [], _, _ -> go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> None
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ -> None)
      end
  in
  go ()

let metrics_conn t fd =
  Fun.protect
    ~finally:(fun () -> close_quiet fd)
    (fun () ->
      match read_request_line fd with
      | None -> ()
      | Some line -> (
        match String.split_on_char ' ' line with
        | "GET" :: path :: _ when path = "/metrics" || path = "/metrics/" ->
          http_respond fd ~status:"200 OK"
            ~content_type:"text/plain; version=0.0.4; charset=utf-8"
            (metrics_text t)
        | "GET" :: _ ->
          http_respond fd ~status:"404 Not Found" ~content_type:"text/plain"
            "not found; try /metrics\n"
        | _ ->
          http_respond fd ~status:"405 Method Not Allowed"
            ~content_type:"text/plain" "only GET is supported\n"))

let metrics_loop t fd =
  while not t.stop_flag do
    match Unix.select [ fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> request_stop t
    | _ -> (
      match Unix.accept fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> ()
      | cfd, _ -> metrics_conn t cfd)
  done;
  close_quiet fd

(* ---- per-connection protocol loop ---- *)

let record_latency t t_recv =
  locked t (fun () ->
      let dt = Obs.now () -. t_recv in
      Obs.Hist.add t.latency dt;
      Obs.Window.observe t.w_latency dt)

let count_outcome t resp =
  let err () = locked t (fun () -> Obs.Window.add t.w_errors 1.0) in
  match resp with
  | Proto.Solved { converged; _ } ->
    bump t (fun s ->
        s.solved <- s.solved + 1;
        if not converged then s.unconverged <- s.unconverged + 1);
    if not converged then err ()
  | Proto.Updated { converged; _ } ->
    bump t (fun s ->
        s.updated <- s.updated + 1;
        if not converged then s.unconverged <- s.unconverged + 1);
    if not converged then err ()
  | Proto.Diagnosed _ -> bump t (fun s -> s.diagnosed <- s.diagnosed + 1)
  | Proto.Failed _ ->
    bump t (fun s -> s.failed <- s.failed + 1);
    err ()
  | Proto.Timed_out _ ->
    bump t (fun s -> s.timed_out <- s.timed_out + 1);
    err ()
  | Proto.Health_report _ | Proto.Pong | Proto.Bye | Proto.Rejected _ -> ()

(* The lowest request tolerance accepted: a hostile [rtol = 1e-300] cannot
   pin the solve lane. *)
let rtol_cap = 1e-14

(* Returns (response, close_connection_after_reply). *)
let dispatch t ~t_recv ~req_id req =
  locked t (fun () ->
      t.stats.requests <- t.stats.requests + 1;
      Obs.Window.add t.w_requests 1.0);
  let admitted ?deadline_ms f =
    let deadline =
      Option.map (fun ms -> t_recv +. (ms /. 1000.0)) deadline_ms
    in
    let resp =
      run_admitted t ~t_recv ~req_id ~deadline (fun () -> f deadline)
    in
    count_outcome t resp;
    record_latency t t_recv;
    (resp, false)
  in
  match req with
  | Proto.Ping -> (Proto.Pong, false)
  | Proto.Health -> (Proto.Health_report (metrics t), false)
  | Proto.Shutdown ->
    if t.config.allow_shutdown then begin
      request_stop t;
      (Proto.Bye, true)
    end
    else begin
      bump t (fun s -> s.rejected <- s.rejected + 1);
      (Proto.Rejected { reason = "shutdown disabled on this daemon" }, false)
    end
  | Proto.Diagnose { spec } -> admitted (fun _ -> exec_diagnose t spec)
  | Proto.Solve { spec; solver = tag; rtol; seed; deadline_ms; robust; want_x }
    ->
    let rtol = Float.max rtol rtol_cap in
    admitted ?deadline_ms (fun deadline ->
        exec_solve t ~t_recv ~spec ~tag ~rtol ~seed ~deadline ~robust ~want_x)
  | Proto.Update { spec; edits; rtol; seed; deadline_ms; want_x } ->
    let rtol = Float.max rtol rtol_cap in
    admitted ?deadline_ms (fun deadline ->
        exec_update t ~t_recv ~spec ~edits ~rtol ~seed ~deadline ~want_x)

(* Poll for readability in short slices so a draining daemon closes idle
   connections within a tick instead of sitting out the full idle
   timeout. Only whole frames are ever read: the frame read starts after
   readability fires, so no partial bytes are dropped by the slicing. *)
let wait_readable t fd =
  let idle_deadline = Obs.now () +. t.config.idle_timeout in
  let rec poll () =
    if t.stop_flag then `Stop
    else if Obs.now () > idle_deadline then `Idle
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> poll ()
      | _ -> `Ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      | exception Unix.Unix_error _ -> `Stop
  in
  poll ()

let send t fd resp =
  Proto.write_frame
    ~deadline:(Obs.now () +. t.config.io_timeout)
    fd
    (Proto.response_to_string resp)

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () ->
      close_quiet fd;
      locked t (fun () -> t.active_conns <- t.active_conns - 1))
    (fun () ->
      let continue = ref true in
      while !continue do
        match wait_readable t fd with
        | `Stop | `Idle -> continue := false
        | `Ready -> (
          match
            Proto.read_frame
              ~deadline:(Obs.now () +. t.config.io_timeout)
              ~max_frame:t.config.max_frame fd
          with
          | Error Proto.Closed -> continue := false
          | Error (Proto.Oversized _ as e) ->
            (* nothing was read past the header and nothing allocated;
               the client gets one explanation, then the connection dies
               (framing cannot be resynchronized) *)
            bump t (fun s -> s.io_errors <- s.io_errors + 1);
            ignore
              (send t fd
                 (Proto.Rejected
                    { reason = "bad-frame: " ^ Proto.io_error_to_string e }));
            continue := false
          | Error _ ->
            (* truncated / stalled / socket error: peer is gone or
               hostile; counted, closed, never propagated *)
            bump t (fun s -> s.io_errors <- s.io_errors + 1);
            continue := false
          | Ok payload -> (
            let t_recv = Obs.now () in
            let req_id = next_request_id t in
            let op, resp, close_after =
              match Proto.request_of_string payload with
              | Error reason ->
                bump t (fun s ->
                    s.requests <- s.requests + 1;
                    s.bad_request <- s.bad_request + 1);
                ( "bad",
                  Proto.Rejected { reason = "bad-request: " ^ reason },
                  false )
              | Ok req ->
                let resp, close_after = dispatch t ~t_recv ~req_id req in
                (op_name req, resp, close_after)
            in
            let body = Proto.response_to_string resp in
            let sent =
              Proto.write_frame
                ~deadline:(Obs.now () +. t.config.io_timeout)
                fd body
            in
            access_log_write t
              (access_line ~id:req_id ~op ~resp
                 ~bytes_in:(String.length payload)
                 ~bytes_out:(String.length body) ~t_recv);
            match sent with
            | Ok () -> if close_after then continue := false
            | Error _ ->
              bump t (fun s -> s.io_errors <- s.io_errors + 1);
              continue := false))
      done)

(* ---- accept loop & lifecycle ---- *)

let accept_loop t =
  while not t.stop_flag do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> request_stop t
    | _ -> (
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        bump t (fun s -> s.accepted_conns <- s.accepted_conns + 1);
        let admitted =
          locked t (fun () ->
              if t.active_conns >= t.config.max_connections then false
              else begin
                t.active_conns <- t.active_conns + 1;
                true
              end)
        in
        if admitted then ignore (Thread.create (fun () -> handle_conn t fd) ())
        else begin
          bump t (fun s -> s.rejected_conns <- s.rejected_conns + 1);
          ignore
            (Proto.write_frame ~deadline:(Obs.now () +. 1.0) fd
               (Proto.response_to_string
                  (Proto.Rejected
                     { reason = "overloaded: connection limit reached" })));
          close_quiet fd
        end)
  done;
  close_quiet t.listen_fd

let bind_listen = function
  | Proto.Unix_sock path -> (
    try
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Ok fd
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "bind unix:%s: %s" path (Unix.error_message e)))
  | Proto.Tcp (host, port) -> (
    try
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try
         Unix.bind fd (Unix.ADDR_INET (ip, port));
         Unix.listen fd 64;
         Ok fd
       with Unix.Unix_error (e, _, _) ->
         close_quiet fd;
         Error
           (Printf.sprintf "bind tcp:%s:%d: %s" host port
              (Unix.error_message e)))
    with Not_found -> Error (Printf.sprintf "unknown host %S" host))

(* The boot tag makes request ids unique across daemon restarts without
   any shared state: pid + coarse start time, hex. *)
let make_boot_tag () =
  Printf.sprintf "%x-%x"
    (Unix.getpid () land 0xffffff)
    (int_of_float (Unix.time ()) land 0xffffff)

let start config =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match bind_listen config.addr with
  | Error _ as e -> e
  | Ok listen_fd -> (
    let metrics_bind =
      match config.metrics_addr with
      | None -> Ok None
      | Some addr -> (
        match bind_listen addr with
        | Error e ->
          close_quiet listen_fd;
          Error e
        | Ok fd ->
          (* tcp port 0: surface the port the kernel actually picked *)
          let bound =
            match addr with
            | Proto.Tcp (host, 0) -> (
              match Unix.getsockname fd with
              | Unix.ADDR_INET (_, port) -> Proto.Tcp (host, port)
              | _ | (exception Unix.Unix_error _) -> addr)
            | a -> a
          in
          Ok (Some (fd, bound)))
    in
    match metrics_bind with
    | Error e -> Error e
    | Ok metrics ->
      let t =
        {
          config;
          listen_fd;
          lock = Mutex.create ();
          solve_lock = Mutex.create ();
          stats =
            {
              accepted_conns = 0;
              rejected_conns = 0;
              requests = 0;
              solved = 0;
              unconverged = 0;
              updated = 0;
              diagnosed = 0;
              failed = 0;
              timed_out = 0;
              shed = 0;
              rejected = 0;
              bad_request = 0;
              io_errors = 0;
            };
          latency = Obs.Hist.create ();
          queue_wait = Obs.Hist.create ();
          started = Obs.now ();
          stop_flag = false;
          active_conns = 0;
          inflight = 0;
          accept_thread = None;
          table = Hashtbl.create 16;
          handle_order = [];
          session_order = [];
          sessions_opened = 0;
          hits = 0;
          misses = 0;
          evictions = 0;
          boot_tag = make_boot_tag ();
          req_seq = 0;
          w_requests = Obs.Window.create ();
          w_fallbacks = Obs.Window.create ();
          w_errors = Obs.Window.create ();
          w_latency = Obs.Window.create_hist ();
          fb_engaged = 0;
          fb_escalations = 0;
          fb_last_rung = "";
          fb_last_residual = Float.nan;
          fb_rungs = Hashtbl.create 8;
          fb_rung_order = [];
          log_lock = Mutex.create ();
          log_chan = None;
          log_bytes = 0;
          metrics_bound = Option.map snd metrics;
          metrics_thread = None;
        }
      in
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
      (match metrics with
       | Some (fd, _) ->
         t.metrics_thread <- Some (Thread.create (fun () -> metrics_loop t fd) ())
       | None -> ());
      Ok t)

let metrics_addr t = t.metrics_bound

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.metrics_thread with Some th -> Thread.join th | None -> ());
  let rec drain () =
    let active = locked t (fun () -> t.active_conns) in
    if active > 0 then begin
      Thread.delay 0.05;
      drain ()
    end
  in
  drain ()

let stop t =
  request_stop t;
  wait t;
  access_log_close t;
  let unlink_sock = function
    | Proto.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | Proto.Tcp _ -> ()
  in
  unlink_sock t.config.addr;
  Option.iter unlink_sock t.metrics_bound
