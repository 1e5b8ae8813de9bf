(* Typed view of the pgserve Health report (wire schema
   pgserve-metrics/v2), its parser, and the Prometheus projection.

   The daemon emits the JSON document (Daemon.metrics); this module is
   the consumer half, shared by pgclient, pgtop, and the tests: parse a
   v1 or v2 document into a [view] (v1 documents simply have no windows
   and no fallback block), and project either onto Prometheus text
   format 0.0.4 via Obs.Prom. Keeping the v1 field set byte-compatible
   inside the v2 document is a wire contract: a v1 consumer reading the
   v2 report sees exactly the fields it always did. *)

module J = Obs.Json

let schema_v1 = "pgserve-metrics/v1"
let schema_v2 = "pgserve-metrics/v2"

type window = {
  label : string;
  span_s : float;
  requests : float;
  req_s : float;
  fallbacks : float;
  fallback_rate : float;
  errors : float;
  latency : Obs.Hist.t option;
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
  latency : Obs.Hist.t option;
  queue_wait : Obs.Hist.t option;
  windows : window list;
  fallback_engaged : int;
  fallback_escalations : int;
  fallback_last_rung : string option;
  fallback_last_residual : float option;
  fallback_rungs : (string * int) list;
}

let int_at path j =
  match Option.bind (J.member path j) J.to_float with
  | Some v -> int_of_float v
  | None -> 0

let float_at path j =
  match Option.bind (J.member path j) J.to_float with
  | Some v -> v
  | None -> 0.0

let str_at path j =
  match J.member path j with Some (J.Str s) -> Some s | _ -> None

let hist_at path j =
  match J.member path j with
  | Some h -> ( match Obs.Hist.of_json h with Ok h -> Some h | Error _ -> None)
  | None -> None

let window_of_json j =
  {
    label = Option.value (str_at "label" j) ~default:"?";
    span_s = float_at "span_s" j;
    requests = float_at "requests" j;
    req_s = float_at "req_s" j;
    fallbacks = float_at "fallbacks" j;
    fallback_rate = float_at "fallback_rate" j;
    errors = float_at "errors" j;
    latency = hist_at "latency_s" j;
  }

let of_json doc =
  match doc with
  | J.Obj _ -> (
    match str_at "schema" doc with
    | None -> Error "health report lacks a schema field"
    | Some schema when schema <> schema_v1 && schema <> schema_v2 ->
      Error (Printf.sprintf "unknown health schema %S" schema)
    | Some schema ->
      let conns = Option.value (J.member "connections" doc) ~default:J.Null in
      let reqs = Option.value (J.member "requests" doc) ~default:J.Null in
      let queue = Option.value (J.member "queue" doc) ~default:J.Null in
      let engine = Option.value (J.member "engine" doc) ~default:J.Null in
      let sessions = Option.value (J.member "sessions" doc) ~default:J.Null in
      let fb = Option.value (J.member "fallback" doc) ~default:J.Null in
      let windows =
        match J.member "windows" doc with
        | Some (J.List ws) -> List.map window_of_json ws
        | _ -> []
      in
      let fallback_rungs =
        match J.member "rungs" fb with
        | Some (J.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match J.to_float v with
              | Some c -> Some (k, int_of_float c)
              | None -> None)
            fields
        | _ -> []
      in
      Ok
        {
          schema;
          uptime_s = float_at "uptime_s" doc;
          conns_accepted = int_at "accepted" conns;
          conns_active = int_at "active" conns;
          conns_rejected = int_at "rejected" conns;
          requests_total = int_at "total" reqs;
          solved = int_at "solved" reqs;
          unconverged = int_at "unconverged" reqs;
          updated = int_at "updated" reqs;
          diagnosed = int_at "diagnosed" reqs;
          failed = int_at "failed" reqs;
          timed_out = int_at "timed_out" reqs;
          shed = int_at "shed" reqs;
          rejected = int_at "rejected" reqs;
          bad_request = int_at "bad_request" reqs;
          io_errors = int_at "io_errors" reqs;
          queue_capacity = int_at "capacity" queue;
          inflight = int_at "inflight" queue;
          engine_hits = int_at "hits" engine;
          engine_misses = int_at "misses" engine;
          engine_hit_rate = float_at "hit_rate" engine;
          sessions_open = int_at "open" sessions;
          sessions_capacity = int_at "capacity" sessions;
          latency = hist_at "latency_s" doc;
          queue_wait = hist_at "queue_wait_s" doc;
          windows;
          fallback_engaged = int_at "engaged" fb;
          fallback_escalations = int_at "escalations" fb;
          fallback_last_rung = str_at "last_rung" fb;
          fallback_last_residual =
            Option.bind (J.member "last_residual" fb) J.to_float;
          fallback_rungs;
        })
  | _ -> Error "health report is not an object"

(* ---- Prometheus projection ---- *)

let prom_metrics v =
  let open Obs.Prom in
  let c name help value =
    Counter { name; help; value = float_of_int value }
  in
  let g name help value = Gauge { name; help; value } in
  let base =
    [
      g "pgserve_uptime_seconds" "Seconds since the daemon started"
        v.uptime_s;
      c "pgserve_connections_accepted_total" "Client connections accepted"
        v.conns_accepted;
      g "pgserve_connections_active" "Currently open client connections"
        (float_of_int v.conns_active);
      c "pgserve_connections_rejected_total"
        "Connections refused at the connection cap" v.conns_rejected;
      c "pgserve_requests_total" "Requests received (all operations)"
        v.requests_total;
      c "pgserve_requests_solved_total" "Solve requests answered Solved"
        v.solved;
      c "pgserve_requests_unconverged_total"
        "Solved/Updated responses that did not converge" v.unconverged;
      c "pgserve_requests_updated_total" "Update requests answered Updated"
        v.updated;
      c "pgserve_requests_diagnosed_total" "Diagnose requests answered"
        v.diagnosed;
      c "pgserve_requests_failed_total" "Requests answered Failed" v.failed;
      c "pgserve_requests_timed_out_total" "Requests answered Timed_out"
        v.timed_out;
      c "pgserve_requests_shed_total" "Requests shed at the admission bound"
        v.shed;
      c "pgserve_requests_rejected_total"
        "Requests rejected by policy (scale cap, draining, shutdown)"
        v.rejected;
      c "pgserve_requests_bad_total" "Undecodable request frames"
        v.bad_request;
      c "pgserve_io_errors_total" "Connection-level I/O errors" v.io_errors;
      g "pgserve_queue_capacity" "Admission bound on in-flight jobs"
        (float_of_int v.queue_capacity);
      g "pgserve_inflight" "Admitted-but-unfinished jobs"
        (float_of_int v.inflight);
      c "pgserve_engine_hits_total" "Problem-table handle hits"
        v.engine_hits;
      c "pgserve_engine_misses_total" "Problem-table handle misses"
        v.engine_misses;
      g "pgserve_engine_hit_rate" "Problem-table hit rate (lifetime)"
        v.engine_hit_rate;
      g "pgserve_sessions_open" "Open ECO sessions"
        (float_of_int v.sessions_open);
      g "pgserve_sessions_capacity" "ECO session capacity"
        (float_of_int v.sessions_capacity);
      c "pgserve_fallback_engaged_total"
        "Robust solves that needed at least one escalation"
        v.fallback_engaged;
      c "pgserve_fallback_escalations_total"
        "Fallback rungs failed and escalated past" v.fallback_escalations;
    ]
  in
  let residual =
    match v.fallback_last_residual with
    | Some r ->
      [ g "pgserve_fallback_last_residual"
          "True relative residual of the most recent fallback winner" r ]
    | None -> []
  in
  let rungs =
    List.map
      (fun (name, wins) ->
        c
          (metric_name (Printf.sprintf "pgserve_rung_%s_total" name))
          "Requests won by this rung" wins)
      v.fallback_rungs
  in
  let hists =
    List.filter_map
      (fun (name, help, h) ->
        Option.map (fun hist -> Histogram { name; help; hist }) h)
      [
        ( "pgserve_request_latency_seconds",
          "Service time per admitted request",
          v.latency );
        ( "pgserve_queue_wait_seconds",
          "Time spent waiting for the solve lane",
          v.queue_wait );
      ]
  in
  let windows =
    List.concat_map
      (fun w ->
        (* sanitize the full assembled name, not the label alone — a
           leading-digit label like "1m" is legal mid-name *)
        let named fmt = metric_name (Printf.sprintf fmt w.label) in
        [
          g
            (named "pgserve_req_per_second_%s")
            (Printf.sprintf "Request rate over the last %s" w.label)
            w.req_s;
          g
            (named "pgserve_fallback_rate_%s")
            (Printf.sprintf "Fallback escalations per request over the last %s"
               w.label)
            w.fallback_rate;
          g
            (named "pgserve_errors_%s")
            (Printf.sprintf
               "Failed/timed-out/unconverged requests over the last %s"
               w.label)
            w.errors;
        ]
        @
        match w.latency with
        | Some hist ->
          [
            Histogram
              {
                name = named "pgserve_request_latency_seconds_%s";
                help =
                  Printf.sprintf "Service time over the last %s" w.label;
                hist;
              };
          ]
        | None -> [])
      v.windows
  in
  base @ residual @ rungs @ hists @ windows

let to_prom doc =
  match of_json doc with
  | Error _ as e -> e
  | Ok v -> Ok (Obs.Prom.render (prom_metrics v))
