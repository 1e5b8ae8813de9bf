(** Execution layer for the library's two coarse parallel regions: a
    [Domain]-based fixed pool with static range partitioning.

    {b What runs on the pool.} Only whole units of work fan out:
    [Solver.solve_many] runs one contiguous chunk of complete sequential
    solves per domain, and the randomized factorization runs the
    ordering's leaf blocks ahead of its sweep. Every kernel inside a
    solve or a column elimination (SpMV, the triangular solves, the
    vector passes and their reductions) is one sequential loop on the
    calling domain.

    {b Determinism policy} (see DESIGN.md §10). No library result depends
    on the domain count. A batch chunk runs the same sequential solve as
    a lone call, and the factorization's blocks produce the plain
    ascending elimination's bits, so a result at [p] domains is
    bit-identical to the result at 1 domain, for every [p].

    {b Ownership.} A pool is owned by one in-flight computation at a
    time. Entry points called while the pool is already running a region
    (a region opened from inside a worker chunk) detect the nesting and
    degrade to inline sequential execution. *)

type pool

val backend : string
(** ["domains"], the name result metadata and benchmark records carry. *)

val hardware_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val domains_of_string : string -> (int, string) result
(** Validate a user-supplied domain count (CLI flag or environment
    variable): trimmed, must parse as an integer in [1 .. 128]. The
    [Error] carries an actionable message naming the offending value —
    shared by every entry point so a typo'd [--domains] and a typo'd
    [POWERRCHOL_DOMAINS] fail with the same words. *)

val recommended_domains : unit -> int
(** Domain count for pools created without an explicit [~domains]: the
    [POWERRCHOL_DOMAINS] environment variable when it passes
    {!domains_of_string}, otherwise [1] — parallelism is opt-in so a
    default build stays bit-identical to the sequential code. A set but
    invalid variable is ignored {e with a warning on stderr}, never
    silently. *)

val create : ?domains:int -> unit -> pool
(** [create ()] builds a pool of [recommended_domains ()] (or [~domains])
    domains including the caller; [domains - 1] workers are spawned and
    parked. Raises [Invalid_argument] when [domains < 1]. *)

val domains : pool -> int
val shutdown : pool -> unit
(** Stop and join the workers. Idempotent. *)

val default : unit -> pool
(** The process-wide pool, created lazily with {!recommended_domains}.
    [Solver.solve_many]'s batch fan-out and [Factor.Rand_chol]'s leaf
    blocks route through it. *)

val set_default_domains : int -> unit
(** Replace the default pool with one of the given size (shutting the old
    one down). Must not be called while a solve is in flight. *)

val effective_domains : unit -> int
(** [domains (default ())]. *)

val runs_parallel : pool -> bool
(** True when a [parallel_for] on this pool would actually fan out:
    more than one domain and not already inside one of its regions. *)

val parallel_for :
  pool -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] partitions [\[lo, hi)] into at most
    [domains pool] contiguous chunks of equal count and calls [f clo chi]
    on each, one chunk per domain, returning when all complete. Runs
    [f lo hi] inline when the pool has one domain or is busy (nested
    call). [f] must only write state disjoint between chunks. Worker
    exceptions are re-raised on the caller.

    When [Obs.enabled ()], each chunk runs inside [Obs.worker_scope]
    (slot = chunk index, prefix = the caller's current span path), so
    spans/counters recorded by chunk code merge deterministically into
    the capture; per-chunk busy seconds are flushed to the absolute
    counters [par/busy_s#<slot>], from which [Obs.capture] derives the
    [par/imbalance] ratio. When disabled the region costs one flag read. *)

val parallel_for_weighted :
  pool ->
  weight:(int -> float) ->
  lo:int ->
  hi:int ->
  (int -> int -> int -> unit) ->
  unit
(** [parallel_for_weighted pool ~weight ~lo ~hi f] is {!parallel_for} with
    chunk boundaries placed on the prefix sums of [weight i] instead of the
    item count — the task API of the parallel factorization, where items
    are the ordering's leaf blocks, of very uneven size. [f slot clo chi]
    additionally receives the chunk slot (0-based, stable for the region)
    so callers can keep slot-private scratch without locking. Runs
    [f 0 lo hi] inline when the pool has one domain or is busy.
    Boundaries depend only on the weights — never on timing or domain
    count. Weights must be nonnegative; when telemetry is on, the
    max-chunk/ideal-share weight ratio is recorded as the
    [par/weighted_imbalance] gauge. *)
