(** Consumer half of the pgserve Health surface: parse a
    [pgserve-metrics/v1] or [pgserve-metrics/v2] report into a typed
    {!view}, and project it onto Prometheus text format 0.0.4.

    The v2 document is a strict superset of v1: every v1 field keeps
    its path and type, and v2 adds rolling windows
    (req/s, fallback rate, windowed latency over 1m/5m/15m) plus a
    fallback block (engagements, escalations, per-rung win counts, the
    last winning rung and its true residual). A v1 consumer reading a
    v2 report sees exactly the fields it always did; {!of_json} reading
    a v1 report yields empty windows and a zeroed fallback block. *)

val schema_v1 : string
val schema_v2 : string

type window = {
  label : string;  (** "1m" | "5m" | "15m" *)
  span_s : float;
  requests : float;  (** requests received inside the window *)
  req_s : float;
  fallbacks : float;  (** fallback escalations inside the window *)
  fallback_rate : float;  (** fallbacks per request, 0 when idle *)
  errors : float;  (** failed + timed-out + unconverged in the window *)
  latency : Obs.Hist.t option;  (** windowed service-time histogram *)
}

type view = {
  schema : string;
  uptime_s : float;
  conns_accepted : int;
  conns_active : int;
  conns_rejected : int;
  requests_total : int;
  solved : int;
  unconverged : int;
  updated : int;
  diagnosed : int;
  failed : int;
  timed_out : int;
  shed : int;
  rejected : int;
  bad_request : int;
  io_errors : int;
  queue_capacity : int;
  inflight : int;
  engine_hits : int;
  engine_misses : int;
  engine_hit_rate : float;
  sessions_open : int;
  sessions_capacity : int;
  latency : Obs.Hist.t option;  (** lifetime service-time histogram *)
  queue_wait : Obs.Hist.t option;
  windows : window list;  (** empty for v1 reports *)
  fallback_engaged : int;
  fallback_escalations : int;
  fallback_last_rung : string option;
  fallback_last_residual : float option;
  fallback_rungs : (string * int) list;
      (** wins per rung name (robust-chain winners and ECO update rungs) *)
}

val of_json : Obs.Json.t -> (view, string) result
(** Parse a Health report. Missing optional sections default to zero /
    empty; an unknown schema tag or a non-object document is an error. *)

val to_prom : Obs.Json.t -> (string, string) result
(** Render a Health report as Prometheus text format 0.0.4 (the same
    text the daemon serves on its [/metrics] listener). *)
