(** Policy-driven solver escalation.

    A {!rung} is one solver attempt; {!run} walks a list of rungs until one
    produces a solution whose {e true} residual (recomputed from [A], [x],
    [b] — never trusted from the solver) meets [rtol]. Typed breakdown
    signals ({!Factor.Rand_chol.Breakdown}, {!Factor.Ichol.Breakdown}) and
    leaked [Failure]/[Invalid_argument] exceptions become structured trace
    entries recording why each rung failed. The engine is deterministic
    given its rungs: no timing or wall-clock state enters the trace, so two
    runs with the same seed produce byte-identical traces. *)

type solution = {
  x : Sparse.Vec.t;
  iterations : int;
  note : string;  (** solver-reported status, recorded in the trace *)
}

type rung = {
  name : string;
  solve : Sddm.Problem.t -> solution;
      (** may raise; breakdown exceptions are caught and classified *)
}

type failure =
  | Breakdown of string  (** typed factorization/iteration breakdown *)
  | Unverified of { residual : float; note : string }
      (** the rung returned, but its true residual misses [rtol] *)
  | Crashed of string  (** leaked [Failure] / [Invalid_argument] *)
  | Timed_out of string
      (** the caller's [deadline] expired before this rung was attempted
          (or the rung itself reported a timed-out iteration) *)
  | Skipped of string
      (** the rung was not attempted by policy — e.g. the update engine
          ruling out an incremental rung whose preconditions fail (pattern
          growth, closure too large). Mirrors the [Timed_out]
          unattempted-rung convention: the trace still names every rung. *)

type attempt = { rung : string; failure : failure }

val skipped : rung:string -> reason:string -> attempt
(** An unattempted-rung trace entry with {!Skipped}; used by callers that
    rule out rungs by policy before invoking {!run}. *)

type outcome = {
  x : Sparse.Vec.t option;  (** [Some] iff a rung succeeded *)
  winner : string option;  (** name of the successful rung *)
  iterations : int;
  residual : float;  (** verified true relative residual, [inf] if none *)
  note : string;
  attempts : attempt list;  (** failed rungs, in attempt order *)
}

val run :
  ?rtol:float -> ?deadline:float -> rungs:rung list -> Sddm.Problem.t ->
  outcome
(** [rtol] defaults to 1e-6. [deadline] is an {e absolute} wall-clock
    instant (same clock as {!Obs.now}); it is checked before each rung, and
    once expired the remaining rungs are recorded as {!Timed_out} attempts
    instead of being run — a bounded chain can no longer spin past the
    budget its caller set. Rungs should additionally propagate the same
    deadline into their own iteration loops (the default chain's rungs
    pass it to [Solver.solve_prepared ?deadline], which hands it to the
    PCG loop) so a single rung cannot overshoot either. Without [deadline]
    the engine is fully deterministic. Unknown exceptions (Out_of_memory,
    ...) are re-raised, not swallowed. *)

val succeeded : outcome -> bool

val failure_to_string : failure -> string
