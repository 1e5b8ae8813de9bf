(** Execution layer for the library's one coarse parallel region:
    {!parallel_for} splits a range into contiguous chunks, spawns a
    [Domain] for each chunk after the first and joins them all before it
    returns. No domain outlives the region that spawned it.

    {b What runs in the region.} Only whole solves fan out:
    [Solver.solve_many] runs one contiguous chunk of complete sequential
    solves per domain. Everything else (the ordering, the factorization,
    and every kernel inside a solve: SpMV, the triangular solves, the
    vector passes and their reductions) is one sequential loop on the
    calling domain.

    {b Determinism policy} (see DESIGN.md §10). No library result depends
    on the domain count. A batch chunk runs the same sequential solve as
    a lone call, so a result at [p] domains is bit-identical to the
    result at 1 domain, for every [p]. *)

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
(** The region width unless {!set_default_domains} sets one: the
    [POWERRCHOL_DOMAINS] environment variable when it passes
    {!domains_of_string}, otherwise [1] — parallelism is opt-in so a
    default build stays bit-identical to the sequential code. A set but
    invalid variable is ignored {e with a warning on stderr}, never
    silently. *)

val set_default_domains : int -> unit
(** Set the width of every later {!parallel_for}. Spawns nothing. Raises
    [Invalid_argument] when the width is below 1. *)

val effective_domains : unit -> int
(** The region width: the last {!set_default_domains}, else
    {!recommended_domains}. *)

val parallel_for : lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for ~lo ~hi f] partitions [\[lo, hi)] into contiguous
    chunks of [ceil ((hi - lo) / effective_domains ())] indices (the last
    one shorter) and calls [f clo chi] on each: chunk 0 on the caller,
    every later chunk on a domain spawned for it, so at most
    [min (effective_domains ()) (hi - lo) - 1] domains are spawned and
    none sits idle. It returns once every spawned domain has been joined.
    [f] must only write state disjoint between chunks.

    [f lo hi] runs inline when the width is 1, and when another region
    is fanning out: a region opened from inside a chunk, or from another
    thread meanwhile. If chunks raise, the first exception in chunk order
    is re-raised after the join; so is a failed [Domain.spawn], which
    counts as its chunk's exception.

    When [Obs.enabled ()], each chunk runs inside [Obs.worker_scope]
    (slot = chunk index, prefix = the caller's current span path), so
    spans/counters recorded by chunk code merge deterministically into
    the capture; per-chunk busy seconds are flushed to the absolute
    counters [par/busy_s#<slot>], from which [Obs.capture] derives the
    [par/imbalance] ratio. *)
