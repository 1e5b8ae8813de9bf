(** Process-wide cache of {!Solver.prepared} handles, plus the versioned
    {!Session} layer for incremental re-solves (the ECO flow).

    The factor-once / solve-many workload appears at several independent
    call sites — {!Transient.dc_drop} for the unshifted DC system,
    {!Sensitivity.of_objective} for primal and adjoint solves, and the CLI
    batch path. They all key preparations here by a cheap structural
    fingerprint (solver config, [n], [nnz], an FNV-1a checksum over the
    graph edges and excess diagonal — {e not} the right-hand side, since a
    factorization is RHS-independent), so asking twice for the same
    solver on the same system pays one reordering and one factorization.

    The fingerprint is a cache hint, not a proof of identity: a collision
    hands back another system's handle, and {!Solver.solve_prepared}
    verifies against that handle's own problem, so the caller receives a
    verified answer to the wrong system. Callers that cannot tolerate this
    should prepare through {!Solver.prepare} directly.

    The cache is FIFO with a small default capacity ({!default_capacity});
    handles hold O(factor nnz) floats, so the cap bounds memory, and the
    workloads that benefit revisit the same few systems. Misses run the
    preparation under the Obs span ["prepare"] and count ["engine/miss"];
    hits count ["engine/hit"]. The cumulative statistics are additionally
    published as Obs gauges ([engine/hits], [engine/misses],
    [engine/evictions], [engine/live_handles]), refreshed on every cache
    operation, so a profiled run can report them without reaching into
    this module.

    Not thread-safe — like the rest of the library, one solve at a time. *)

val prepare : ?config:string -> Solver.t -> Sddm.Problem.t -> Solver.prepared
(** [prepare ?config solver problem] returns a cached handle when the
    fingerprint matches a previous call, otherwise runs [solver.prepare].
    [config] must encode every parameter baked into the solver closure
    (seed, buckets, …) that the solver's [name] does not; two solvers with
    equal name+config must prepare identically. *)

val powerrchol :
  ?buckets:int -> ?heavy_factor:float -> ?seed:int -> Sddm.Problem.t ->
  Solver.prepared
(** The paper's solver through the cache, with the config string derived
    from the actual parameters — the safe entry point for powerrchol
    preparations (no config-string discipline required of the caller). *)

val default_capacity : int

val set_capacity : int -> unit
(** Resize the cache, evicting oldest entries if shrinking. [0] disables
    caching (every call prepares afresh). *)

val clear : unit -> unit
(** Drop all cached handles (e.g. between benchmark phases so timings
    don't observe cross-phase reuse). Does not reset the hit/miss
    counters. *)

val hits : unit -> int
val misses : unit -> int

val evictions : unit -> int
(** Handles dropped by capacity pressure, {!set_capacity} shrinks, or a
    session re-registering under a new version. *)

val live_handles : unit -> int
(** Prepared handles currently held by the cache. *)

val reset_stats : unit -> unit

(** {1 Versioned sessions}

    A session owns an editable power-grid system together with its
    ordering, an {e updatable} LT-RChol factorization, and a
    monotonically increasing version. {!Session.update} applies a batch
    of {!Sddm.Edit.t} values and revalidates the preparation by the
    cheapest applicable rung:

    - {!Session.Rhs_only} — only loads changed; the factorization is
      untouched.
    - {!Session.Local} — etree-local re-factorization: only the columns
      in the ancestor closure of the edited nodes are re-eliminated, in
      place, with the factor's structural choices frozen
      (see {!Factor.Rand_chol.refactor}).
    - {!Session.Low_rank} — the closure was too large but the edit
      touches few nodes: the existing preconditioner is wrapped with a
      Woodbury correction for the pending matrix delta. The factor
      itself stays stale; deltas accumulate until a later update
      succeeds with a deeper rung.
    - {!Session.Full} — fallback that re-prepares from scratch exactly
      as {!powerrchol} would (bit-for-bit: same ordering, same seed
      discipline), preserving the PCG workspace so warm-started
      iteration state survives.

    Rung selection is automatic; rungs ruled out by policy are recorded
    as {!Robust.Fallback.Skipped} attempts in the report, mirroring the
    fallback engine's unattempted-rung convention. After any update
    sequence the active preconditioner preconditions the {e edited}
    matrix — {!Session.solve} always verifies the true residual through
    {!Solver.solve_prepared}.

    Each session registers its current handle in the cache under a
    version-aware key, replacing (and counting as eviction of) the
    previous version's entry, so stale handles cannot alias fresh
    ones. *)

module Session : sig
  type t

  type rung = Rhs_only | Local | Low_rank | Full

  val rung_name : rung -> string

  type update_report = {
    version : int;  (** session version after this update *)
    rung : rung;  (** the rung that revalidated the preparation *)
    columns : int;  (** columns re-eliminated (Local rung, else 0) *)
    support : int;  (** pending-delta support size (Low_rank attempts) *)
    skipped : Robust.Fallback.attempt list;
        (** rungs ruled out by policy, with reasons *)
    t_update : float;  (** wall seconds spent in this update *)
    changes : Sddm.Edit.change list;  (** per-edit classification *)
  }

  val create :
    ?buckets:int -> ?heavy_factor:float -> ?seed:int ->
    ?max_fraction:float -> ?low_rank_max:int -> Sddm.Problem.t -> t
  (** Deep-copy [problem] into an editable session and prepare it (Alg. 4
      ordering + updatable LT-RChol). [max_fraction] (default [0.25])
      bounds the Local rung: a re-factorization touching more than
      [max_fraction * n] columns escalates. [low_rank_max] (default [16])
      bounds the Woodbury rung's support size. *)

  val id : t -> int
  (** Process-unique session id (also the cache checksum, so sessions
      never collide with fingerprinted immutable preparations). *)

  val version : t -> int
  (** Starts at [0]; incremented by every {!update}. *)

  val problem : t -> Sddm.Problem.t
  (** The current edited problem (see {!Sddm.Edit.problem} for the
      in-place-patching contract). *)

  val prepared : t -> Solver.prepared
  (** The session's current handle — also reachable through the cache. *)

  val update : t -> Sddm.Edit.t list -> update_report
  (** Apply the edits and revalidate. Raises [Invalid_argument] (before
      mutating anything) if an edit is invalid. After return,
      [prepared t] preconditions the edited matrix regardless of the
      rung taken. *)

  val solve :
    ?rtol:float -> ?max_iter:int -> ?deadline:float -> ?x0:Sparse.Vec.t ->
    ?b:Sparse.Vec.t -> t -> Solver.result
  (** Solve against the session's current matrix and preparation; [b]
      defaults to the session's current (edited) right-hand side. Same
      marginal-cost semantics as {!Solver.solve_prepared}. *)

  val close : t -> unit
  (** Drop the session's cache entry. The session record itself is inert
      afterwards (solving still works; it just no longer holds a cache
      slot). *)
end

val update : Session.t -> Sddm.Edit.t list -> Session.update_report
(** Alias for {!Session.update} — the engine-level entry point named in
    the ECO flow. *)
