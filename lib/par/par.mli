(** Execution layer for the library's one coarse parallel region: a
    [Domain]-based fixed pool with static range partitioning.

    {b What runs on the pool.} Only whole solves fan out:
    [Solver.solve_many] runs one contiguous chunk of complete sequential
    solves per domain. Everything else (the ordering, the factorization,
    and every kernel inside a solve: SpMV, the triangular solves, the
    vector passes and their reductions) is one sequential loop on the
    calling domain.

    {b Determinism policy} (see DESIGN.md §10). No library result depends
    on the domain count. A batch chunk runs the same sequential solve as
    a lone call, so a result at [p] domains is bit-identical to the
    result at 1 domain, for every [p].

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
(** The default pool's width unless {!set_default_domains} sets one: the
    [POWERRCHOL_DOMAINS] environment variable when it passes
    {!domains_of_string}, otherwise [1] — parallelism is opt-in so a
    default build stays bit-identical to the sequential code. A set but
    invalid variable is ignored {e with a warning on stderr}, never
    silently. *)

val create : domains:int -> unit -> pool
(** [create ~domains ()] builds a pool of [domains] domains including the
    caller; [domains - 1] workers are spawned and parked. Raises
    [Invalid_argument] when [domains < 1]. *)

val domains : pool -> int
val shutdown : pool -> unit
(** Stop and join the workers. Idempotent. *)

val default : unit -> pool
(** The process-wide pool of {!effective_domains} domains, spawned on the
    first call. [Solver.solve_many]'s batch fan-out routes through it. *)

val set_default_domains : int -> unit
(** Set the default pool's width, shutting down a pool already spawned;
    the next {!default} spawns one of the new width. Spawns nothing
    itself. Raises [Invalid_argument] when the width is below 1. Must not
    be called while a solve is in flight. *)

val effective_domains : unit -> int
(** The default pool's width: the last {!set_default_domains}, else
    {!recommended_domains}. Spawns no pool. *)

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
