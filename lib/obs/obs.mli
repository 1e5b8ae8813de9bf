(** Zero-dependency observability: span timers, counters, latency
    histograms, event traces, and telemetry records with text / JSON
    exporters.

    The layer is designed to cost (almost) nothing when disabled: every
    entry point checks {!enabled} once and returns immediately,
    allocating nothing on the fast path. Hot loops that cannot afford
    even a closure per call read [enabled ()] once, accumulate
    privately, and flush a single {!record_span} / {!count} at the end.

    v2 is domain-safe. State lives in per-domain stores: the root store
    belongs to the main domain, and [Par] workers record into worker
    stores (one per parallel chunk) entered via {!worker_scope}.
    {!capture} merges all stores deterministically — root first, then
    worker slots in ascending order — summing span times and counters
    and merging histograms, so a profiled parallel run reports the same
    counter totals as the sequential run, in the same first-seen order.

    Timers use [Unix.gettimeofday]; elapsed times are clamped at zero so
    a clock step backwards can never produce negative spans. *)

(** {1 Minimal JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : ?indent:bool -> t -> string
  (** Serialize. Non-finite floats become [null] (JSON has no NaN/Inf);
      finite floats print with enough digits to round-trip exactly.
      Control characters are emitted as [\uXXXX] escapes; everything
      else passes through as UTF-8 bytes. *)

  val parse : string -> (t, string) result
  (** Strict recursive-descent parser for standard JSON. [\uXXXX]
      escapes decode to UTF-8 bytes; surrogate pairs combine into one
      astral code point, and lone surrogates decode to U+FFFD. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] elsewhere. *)

  val to_float : t -> float option
  (** Numeric view: [Int] and [Float] both convert; everything else is
      [None]. *)
end

(** {1 Histograms} *)

module Hist : sig
  type t
  (** A log-bucketed histogram: quarter-octave buckets (four per power
      of two, ~19% wide) spanning 2{^-120}..2{^56}, plus underflow and
      overflow sinks. Only integer bucket counts and exact min/max are
      stored — no float sum — so {!merge} is exactly associative and
      merged captures are deterministic. *)

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one sample. Non-finite samples are ignored; zero and
      negative samples land in the underflow bucket. *)

  val count : t -> int

  val min_value : t -> float
  (** Smallest recorded sample ([infinity] when empty). *)

  val max_value : t -> float
  (** Largest recorded sample ([neg_infinity] when empty). *)

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0..100], nearest-rank. The result is
      the geometric midpoint of the selected bucket clamped to the
      observed min/max, so it is within half a bucket width (~9%) of
      the true order statistic. [nan] when empty. *)

  val merge : t -> t -> t
  (** Pure elementwise merge; exactly associative and commutative. *)

  val copy : t -> t
  val to_json : t -> Json.t

  val of_json : Json.t -> (t, string) result
  (** Inverse of {!to_json} (the derived p50/p95/p99 convenience fields
      are recomputed, not parsed). *)

  val bucket_counts : t -> (int * int) list
  (** Non-empty buckets as [(index, count)] pairs in ascending index
      order. Indices are stable across processes (the bucket layout is a
      compile-time constant), so exporters can label them with
      {!bucket_upper_edge}. *)

  val bucket_upper_edge : int -> float
  (** Upper edge of bucket [i]: the underflow sink (index 0) ends at the
      lowest representable edge, interior buckets at
      2{^min_exp + i/4}, and the overflow sink is [infinity]. *)
end

(** {1 Rolling windows} *)

module Window : sig
  (** Rolling-window aggregation: a ring of fixed wall-clock buckets
      (epoch [floor(now / bucket_s)] lands in slot [epoch mod slots]),
      lazily zeroed on wrap. Queries sum the most recent
      [ceil(span_s / bucket_s)] buckets including the current partial
      one, so a window is deterministic given the samples and their
      timestamps — [?now] is injectable everywhere for tests and
      defaults to the wall clock. *)

  type t
  (** A windowed counter. *)

  val create : ?bucket_s:float -> ?slots:int -> unit -> t
  (** Default 5-second buckets, 181 slots (covers a 15-minute window
      plus the current partial bucket). [slots] is clamped to >= 2. *)

  val add : ?now:float -> t -> float -> unit
  val sum : ?now:float -> t -> span_s:float -> float

  val rate : ?now:float -> t -> span_s:float -> float
  (** [sum /. span_s]; [0.0] when [span_s <= 0.0]. *)

  type hist
  (** A windowed histogram: one {!Hist.t} per slot. *)

  val create_hist : ?bucket_s:float -> ?slots:int -> unit -> hist
  val observe : ?now:float -> hist -> float -> unit

  val merged : ?now:float -> hist -> span_s:float -> Hist.t
  (** Merge the live slots covering the window, oldest first. Because
      {!Hist.merge} is exactly associative, the result is a pure
      function of the recorded samples. *)
end

(** {1 Prometheus exposition} *)

module Prom : sig
  (** Prometheus text exposition format 0.0.4: rendering of counters,
      gauges, and log-bucketed {!Hist} histograms (cumulative [le]
      buckets), plus a structural validator used as the bundled
      fallback where promtool is unavailable. *)

  type metric =
    | Counter of { name : string; help : string; value : float }
    | Gauge of { name : string; help : string; value : float }
    | Histogram of { name : string; help : string; hist : Hist.t }

  val metric_name : string -> string
  (** Map an Obs path (["serve/requests"]) onto the metric-name
      alphabet [[a-zA-Z_:][a-zA-Z0-9_:]*] (slashes and other separators
      become underscores; a leading digit gains a [_] prefix). *)

  val render : metric list -> string
  (** Render [# HELP] / [# TYPE] headers and samples. Histograms emit
      cumulative [_bucket{le="..."}] series (one per non-empty bucket,
      ascending, plus [+Inf]), [_count], and a [_sum] approximated from
      bucket geometric midpoints clamped to the observed min/max (the
      histogram stores no float sum — that is what makes its merge
      exact). Non-finite values render as [NaN] / [+Inf] / [-Inf],
      which the text format allows. *)

  val validate : string -> (string, string) result
  (** Structural checker for text-format 0.0.4 exposition: metric and
      label names must match the grammar, label values must be quoted,
      sample values must parse as floats ([+Inf]/[-Inf]/[NaN]
      included), [TYPE] lines must precede their samples and not
      repeat, and histogram families must have cumulative bucket counts
      that are non-decreasing in [le] with a [+Inf] bucket equal to
      [_count]. [Ok summary] on success. *)
end

(** {1 Global switches} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val tracing : unit -> bool
(** Whether event tracing is armed. Trace events are only recorded when
    both {!enabled} and {!tracing} are true. *)

val set_tracing : bool -> unit

val reset : unit -> unit
(** Drop all recorded spans, counters, histograms, and trace buffers in
    every store (root and workers) and clear the span stacks. The
    enabled/tracing switches are left as they are. *)

val now : unit -> float
(** The wall clock used by the span timers (seconds). *)

(** {1 Spans}

    A span is a named, timed region. Nesting is tracked with a
    per-store stack: entering span ["factor"] inside span ["solve"]
    records under the path ["solve/factor"]. Re-entering a path
    accumulates (total seconds, number of calls), so per-column
    inner-loop spans stay cheap to aggregate. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside the named span. When disabled this is
    exactly [f ()]. Exceptions propagate; the elapsed time is recorded
    either way. When tracing is armed, a begin/end event pair is also
    written to the calling domain's trace track. *)

val record_span : string -> seconds:float -> calls:int -> unit
(** Merge an externally measured aggregate into the span named [name]
    under the current stack prefix — the flush half of the
    read-[enabled]-once pattern for hot loops. No-op when disabled. *)

(** {1 Counters} *)

val count : string -> int -> unit
(** Add to a (stack-prefixed) counter. No-op when disabled. *)

val gauge : string -> float -> unit
(** Set a (stack-prefixed) gauge to an absolute value. No-op when
    disabled. Use this — not {!count} — for values that describe the
    current artifact (sizes, maxima): a counter would sum across
    repeated runs in one capture. *)

val add_absolute : string -> float -> unit
(** Add to a counter addressed by its full path, ignoring the span
    stack. For infrastructure totals (e.g. the [Par] pool's per-slot
    busy times) that must land on one well-known path no matter where
    the flushing code happens to run. No-op when disabled. *)

val observe : string -> float -> unit
(** Record one sample into a (stack-prefixed) latency histogram. No-op
    when disabled. *)

val histogram : string -> Hist.t option
(** Resolve a (stack-prefixed) histogram handle once, for hot loops
    that record per-iteration samples with {!Hist.add} directly.
    [None] when disabled. *)

val trace_counter : string -> float -> unit
(** Emit a counter sample (Chrome [ph:"C"] event) on the calling
    domain's trace track — e.g. a per-iteration residual norm. No-op
    unless both enabled and tracing. *)

(** {1 Worker scopes} *)

val worker_scope : slot:int -> prefix:string -> (unit -> 'a) -> 'a
(** [worker_scope ~slot ~prefix f] runs [f] with the calling domain's
    recording redirected into the worker store for [slot] (created on
    first use), its span stack seeded with [prefix] (the caller's
    current path, so worker-recorded paths line up with the sequential
    run). The previous store binding is restored on exit, exceptions
    included. Used by [Par.parallel_for]; slot [i] surfaces as trace
    track ["domain<i>"]. *)

val current_prefix : unit -> string
(** The innermost open span path of the calling domain's store, [""] at
    top level. This is what [Par] passes to {!worker_scope}. *)

(** {1 Telemetry records} *)

type span_stat = { path : string; seconds : float; calls : int }

type record = {
  meta : (string * Json.t) list;
      (** free-form header: solver, case, n, nnz, iterations, status, ... *)
  spans : span_stat list;  (** first-entered order, hierarchical paths *)
  counters : (string * float) list;  (** first-touched order *)
  hists : (string * Hist.t) list;  (** first-touched order *)
}

val capture : ?meta:(string * Json.t) list -> unit -> record
(** Snapshot the merge of all stores (does not reset). Merge order is
    root store first, then worker slots ascending, so the result is
    deterministic at any domain count. When per-slot busy-time counters
    ([par/busy_s#i]) are present, a derived [par/imbalance] counter
    (max busy / mean busy, 1.0 = perfectly balanced) is appended. *)

val record_to_json : record -> Json.t
(** Schema [powerrchol-telemetry/v2] (v1 plus the ["hists"] object). *)

val record_of_json : Json.t -> (record, string) result
(** Inverse of {!record_to_json}: [record_of_json (record_to_json r) = Ok r]
    for records with finite span times and counter values. Accepts v1
    records (missing ["hists"] defaults to empty). *)

val record_to_text : record -> string
(** Human-readable report: meta lines, then the span tree indented by
    depth, then counters, then histogram percentiles. *)

(** {1 Event traces}

    When {!tracing} is armed, spans additionally log timestamped
    begin/end events into a fixed-capacity per-domain ring buffer (one
    Chrome trace track per domain). Begin events reserve room for their
    matching end, so a full buffer drops whole pairs (counted in
    {!Trace.dropped}) and never breaks B/E balance. Timestamps are
    clamped monotonic per track. *)

module Trace : sig
  type event = {
    track : int;  (** 0 = main, [i+1] = parallel chunk [i] *)
    name : string;
    phase : char;  (** 'B' | 'E' | 'C' *)
    ts : float;  (** absolute seconds *)
    value : float;  (** payload for 'C' events *)
  }

  val set_capacity : int -> unit
  (** Capacity (events per track) for buffers created afterwards;
      clamped to at least 256. Default 65536. *)

  val events : unit -> event list
  (** All recorded events, grouped by track, chronological within each
      track. *)

  val dropped : unit -> int
  (** Total events dropped across all tracks due to full buffers. *)

  val to_json : unit -> Json.t
  (** Chrome trace-event JSON (object form): a ["traceEvents"] list
      with process/thread-name metadata, one [tid] per track, [ts] in
      microseconds relative to the first [set_tracing true]. Schema tag
      [powerrchol-trace/v1]. Loadable in Perfetto / chrome://tracing. *)

  val write : string -> unit
  (** Write {!to_json} to a file (compact, one line). *)

  val validate : Json.t -> (string, string) result
  (** Structural well-formedness gate for an emitted trace: every track
      must have balanced B/E events with matching names and
      non-decreasing timestamps, and only phases M/B/E/C/i/I may
      appear. [Ok summary] on success, [Error reason] otherwise. *)
end
