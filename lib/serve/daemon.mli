(** The pgserve daemon core: a fault-tolerant solver server.

    One {!t} multiplexes many concurrent client connections onto its own
    problem table. The table has one entry per request spec: a suite case
    by id and exact scale, a MatrixMarket file by path and a digest of its
    bytes. An entry holds the built problem, its prepared handles by
    (solver, seed) and its ECO sessions by seed, so a warm request is a
    table lookup and a PCG solve, with no rebuild and no re-factorization.
    Handles are capped at {!max_handles} across the table and evicted
    least-recently-used; sessions are capped at four and evicted FIFO (a
    later update on an evicted session's spec transparently re-opens it
    with a fresh preparation); an entry holding neither is dropped.
    The design goal is that {e no client behavior can crash, hang, or
    wedge the daemon}:

    - {b Framed I/O} uses {!Proto.read_frame} / {!Proto.write_frame}:
      partial reads, EINTR, torn frames, garbage headers, and oversized
      payloads all surface as typed errors that close (at worst) one
      connection.
    - {b Admission control} bounds the number of admitted-but-unfinished
      solve jobs by [queue_capacity]; beyond that, requests are shed with
      a typed [Rejected] response instead of growing an unbounded queue.
    - {b Deadlines}: a request's [deadline_ms] starts at admission and is
      propagated into the PCG/fallback iteration loops as cooperative
      cancellation, so a hard problem cannot hold the solve lane past its
      budget. Requests that expire while queued are answered [Timed_out]
      without running at all.
    - {b Graceful shutdown}: {!request_stop} stops accepting, in-flight
      requests run to completion, handler threads notice within a poll
      tick, and {!stop} returns once every connection has drained.

    Solves are serialized through one internal lock (the problem table and
    solver internals are not thread-safe), so [queue_capacity] is the
    whole backlog bound.

    Every admitted request ends in exactly one typed response; every
    outcome increments a counter visible in {!metrics}. *)

type config = {
  addr : Proto.addr;
  queue_capacity : int;
      (** admitted-but-unfinished solve/diagnose jobs beyond which new
          work is shed with [Rejected "overloaded: ..."] *)
  max_connections : int;
      (** concurrent client connections; excess connections receive one
          [Rejected] frame and are closed *)
  idle_timeout : float;
      (** seconds a connection may sit without sending a request *)
  io_timeout : float;
      (** per-frame read/write budget once bytes start flowing — a
          stalled peer costs at most this long *)
  max_frame : int;  (** frame size cap (see {!Proto.default_max_frame}) *)
  artificial_delay : float;
      (** test hook: seconds of sleep inserted into every solve job while
          it holds the solve lane; makes load-shedding and drain behavior
          reproducible in tests. 0 in production. *)
  allow_shutdown : bool;
      (** whether a [Shutdown] request is honored (daemon CLI enables it
          for the smoke test; a production deployment would not) *)
  max_iter : int;  (** PCG iteration budget per solve *)
  scale_cap : float;
      (** upper bound on accepted suite-case scales, for every request
          naming a case — bounds per-request memory and time *)
  metrics_addr : Proto.addr option;
      (** when set, a second listener serving Prometheus text format
          0.0.4 over plain HTTP ([GET /metrics]). [Tcp (host, 0)] binds
          an ephemeral port; {!metrics_addr} reports the real one. *)
  access_log : string option;
      (** when set, one JSON line per request is appended to this file
          (fields: ts, id, op, outcome, reason, rung, iterations,
          residual, bytes_in, bytes_out, latency_ms) *)
  access_log_max_bytes : int;
      (** size-based rotation bound: when the next line would cross it,
          the file is renamed to [FILE.1] (replacing any previous one)
          and a fresh file is started *)
}

val default_config : Proto.addr -> config
(** Capacity 32, 64 connections, 30 s idle, 10 s io, 16 MiB frames, no
    artificial delay, shutdown disabled, 500 iterations, scale capped at
    1.0, no metrics listener, no access log, 10 MiB rotation bound.
    Request tolerances are always raised to at least 1e-14, so a hostile
    [rtol = 1e-300] cannot pin the solve lane. *)

val max_handles : int
(** Prepared handles the problem table holds across all entries (8);
    past it the least recently used one is dropped. *)

type t

val start : config -> (t, string) result
(** Bind, listen, and spawn the accept thread. [Error] (with a readable
    reason) when the address cannot be bound. SIGPIPE is ignored
    process-wide — a vanished client must surface as a typed write error,
    not a signal. *)

val addr : t -> Proto.addr

val metrics_addr : t -> Proto.addr option
(** The address the metrics listener actually bound (ephemeral TCP
    ports resolved), or [None] when no metrics listener was requested. *)

val request_stop : t -> unit
(** Begin graceful shutdown: stop accepting, let in-flight requests
    finish. Idempotent, safe from any thread (including handlers). *)

val stopping : t -> bool

val wait : t -> unit
(** Block until the server has fully drained (accept thread exited, every
    connection closed). Polling-based, so it is safe to call from the
    main thread while handler threads are still finishing. *)

val stop : t -> unit
(** {!request_stop} then {!wait}, then release the listening sockets and
    close the access log. *)

val metrics : t -> Obs.Json.t
(** Snapshot of the daemon's counters: connections
    (accepted/active/rejected), request outcomes
    (solved/updated/failed/timed_out/shed/bad_request/io_errors), problem
    table statistics in the [engine] block (Solve lookups that found or
    missed their handle, hit_rate, LRU evictions, live_handles), open
    ECO session count and capacity, queue occupancy, service-time and
    queue-wait latency histograms (with derived p50/p95/p99), uptime,
    rolling 1m/5m/15m windows (req/s, fallback rate, errors, windowed
    latency), and the fallback block (engagements, escalations, per-rung
    win counts, last winning rung and residual). Schema
    [pgserve-metrics/v2]; the v1 field set is an unchanged subset (see
    {!Health}). *)

val metrics_text : t -> string
(** {!metrics} rendered as Prometheus text format 0.0.4 — the same body
    the metrics listener serves on [GET /metrics]. *)
