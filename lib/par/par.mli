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

    When [Obs.enabled ()], the region owns its chunks' telemetry: chunk
    [i] records into a fresh store that starts at the caller's open span
    path ([Obs.fork], [Obs.in_chunk]) and traces on track [i + 1], and
    after the join the caller folds the chunk stores into its own in
    chunk order ([Obs.join]), so a record lists the same paths in the
    same order as the sequential run. The caller then adds chunk [i]'s
    busy seconds to the counter [par/busy_s#<i>] and sets
    [par/imbalance] to the region's max over mean busy seconds (1.0 is
    perfectly balanced). Over several regions the busy counters add up
    and [par/imbalance] is the last region's. *)
