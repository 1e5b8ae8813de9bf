(** Execution layer for the parallel hot-path kernels: a [Domain]-based
    fixed pool with static range partitioning.

    {b Determinism policy} (see DESIGN.md §10). A pool of 1 domain runs
    every kernel through the historical sequential code path, so results
    are bit-identical to a build without this layer. With [p > 1] domains
    the race-free kernels (gather-form SpMV, elementwise vector passes)
    are bit-identical at {e any} domain count by construction; the
    triangular solves always run sequentially. Reductions reassociate, so
    {!reduce_blocked} sums fixed-size blocks in a fixed order, making
    every [p > 1] produce the same bits as every other [p > 1].

    {b Ownership.} A pool is owned by one in-flight computation at a
    time. Entry points called while the pool is already running a region
    (a kernel invoked from inside a worker chunk) detect the nesting and
    degrade to inline sequential execution — fanning a batch of solves
    across the pool automatically serializes each solve's inner kernels. *)

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
    The hot kernels ([Sparse.Vec], [Sparse.Csc.spmv_sym_into],
    [Factor.Lower]) route through it. *)

val set_default_domains : int -> unit
(** Replace the default pool with one of the given size (shutting the old
    one down). Must not be called while a solve is in flight. *)

val effective_domains : unit -> int
(** [domains (default ())]. *)

val runs_parallel : pool -> bool
(** True when a [parallel_for] on this pool would actually fan out:
    more than one domain and not already inside one of its regions. *)

val parallel_for :
  pool -> ?min_work:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] partitions [\[lo, hi)] into at most
    [domains pool] contiguous chunks and calls [f clo chi] on each, one
    chunk per domain, returning when all complete. Runs [f lo hi] inline
    when the pool has one domain, is busy (nested call), or
    [hi - lo < min_work] (default [1]). [f] must only write state disjoint
    between chunks. Worker exceptions are re-raised on the caller.

    When [Obs.enabled ()], each chunk runs inside [Obs.worker_scope]
    (slot = chunk index, prefix = the caller's current span path), so
    spans/counters recorded by chunk code merge deterministically into
    the capture; per-chunk busy seconds are flushed to the absolute
    counters [par/busy_s#<slot>], from which [Obs.capture] derives the
    [par/imbalance] ratio. When disabled the region costs one flag read. *)

val parallel_for_weighted :
  pool ->
  ?min_work:int ->
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
    [f 0 lo hi] inline when the pool has one domain, is busy, or
    [hi - lo < min_work]. Boundaries depend only on the weights — never on
    timing or domain count. Weights must be nonnegative; when telemetry is
    on, the max-chunk/ideal-share weight ratio is recorded as the
    [par/weighted_imbalance] gauge. *)

val default_block : int
(** Block size used by {!reduce_blocked} when [?block] is omitted (4096). *)

val reduce_blocked :
  pool -> ?block:int -> lo:int -> hi:int -> (int -> int -> float) -> float
(** [reduce_blocked pool ~lo ~hi f] splits [\[lo, hi)] into fixed blocks
    of [block] elements {e independent of the domain count}, evaluates
    [f blo bhi] per block (in parallel when possible), and sums the block
    results in ascending block order — the deterministic reduction that
    keeps PCG iteration traces reproducible at any domain count. *)
