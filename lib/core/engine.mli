(** Versioned sessions for incremental re-solves (the ECO flow).

    Nothing in this module is shared between callers: a {!Session.t}, like
    a {!Solver.prepared} handle, belongs to whoever created it and goes
    away when they drop it. A caller that solves one system many times
    keeps the handle {!Solver.prepare} returned and passes it to
    {!Solver.solve_prepared} / {!Solver.solve_many}.

    Not thread-safe — like the rest of the library, one solve at a time. *)

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
      as {!Solver.powerrchol_prepare} would (bit-for-bit: same ordering,
      same seed discipline), preserving the PCG workspace so warm-started
      iteration state survives.

    Rung selection is automatic; rungs ruled out by policy are recorded
    as {!Robust.Fallback.Skipped} attempts in the report, mirroring the
    fallback engine's unattempted-rung convention. After any update
    sequence the active preconditioner preconditions the {e edited}
    matrix — {!Session.solve} always verifies the true residual through
    {!Solver.solve_prepared}. *)

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
  (** Process-unique session id. *)

  val version : t -> int
  (** Starts at [0]; incremented by every {!update}. *)

  val problem : t -> Sddm.Problem.t
  (** The current edited problem (see {!Sddm.Edit.problem} for the
      in-place-patching contract). *)

  val prepared : t -> Solver.prepared
  (** The session's current handle. *)

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
  (** Does nothing: a session holds no shared resource. Kept, like
      {!prepare} and {!clear}, only because [bench/ledger] still calls
      it. *)
end

val update : Session.t -> Sddm.Edit.t list -> Session.update_report
(** Alias for {!Session.update} — the engine-level entry point named in
    the ECO flow. *)

(** {1 Benchmark-ledger stubs}

    [bench/ledger] still calls these names. They keep their types and
    share nothing between calls: {!prepare} prepares afresh every time. *)

val prepare : ?config:string -> Solver.t -> Sddm.Problem.t -> Solver.prepared
(** {!Solver.prepare}; [config] is ignored. *)

val clear : unit -> unit
(** Does nothing. *)
