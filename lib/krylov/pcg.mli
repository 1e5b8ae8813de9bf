(** Preconditioned conjugate gradient for SPD systems.

    Stopping criterion matches the paper: relative residual
    [||b - A x||_2 / ||b||_2 <= rtol] (the recurrence residual is used
    during iteration; it tracks the true residual closely for the
    well-conditioned preconditioned systems at hand).

    Every exit carries a typed {!status} so callers can distinguish honest
    slow convergence ([Max_iter]) from a numerical failure ([Breakdown]) or
    a stalled iteration ([Stagnated]) — the robustness layer
    ([Robust.Fallback]) escalates on the latter two.

    Two entry points:
    - {!solve} allocates its own buffers per call — convenient for
      one-shot solves, and the only one that can track the residual
      history and the condition estimate;
    - {!solve_operator_into} iterates inside a caller-owned
      {!Workspace.t} and writes the solution into a caller-owned [x] —
      the factor-once / solve-many path (transient marches, batched RHS)
      where the loop must not allocate any n-sized array.

    Telemetry (when [Obs.enabled ()]): aggregate [precond]/[spmv] spans
    and an [iterations] counter, per-iteration wall times in the
    [iter_seconds] histogram, and [relres] / [contraction] gauges (final
    relative residual, mean per-iteration contraction factor). When
    [Obs.tracing ()] is also armed, each iteration additionally emits a
    [residual] counter event on the calling domain's trace track. *)

type breakdown_reason =
  | Indefinite of { iteration : int; curvature : float }
      (** [p' A p <= 0]: the (preconditioned) operator is not positive
          definite. [curvature] is the offending inner product. *)
  | Nonfinite of { iteration : int }
      (** NaN/Inf appeared in the residual or a Krylov inner product
          (NaN-contaminated input, or overflow). *)

type status =
  | Converged  (** relative residual reached [rtol] *)
  | Max_iter  (** iteration budget exhausted while still making progress *)
  | Breakdown of breakdown_reason
  | Stagnated of { iteration : int; best_residual : float }
      (** no residual improvement for [stall_window] consecutive
          iterations; continuing is pointless *)
  | Timed_out of { iteration : int }
      (** the caller's [deadline] passed before convergence; [x] holds the
          best iterate so far — cooperative cancellation for servers and
          budgeted fallback chains *)

val status_to_string : status -> string

type result = {
  x : Sparse.Vec.t;
      (** the solution. For {!solve_operator_into} this is {e physically}
          the caller's buffer (useful for zero-allocation assertions). *)
  iterations : int;  (** true count of completed iterations at exit *)
  status : status;
  converged : bool;  (** derived view: [status = Converged] *)
  relative_residual : float;  (** recurrence residual at exit *)
  history : float array;
      (** relative residual after each iteration; [[||]] when history
          tracking is off *)
  condition_estimate : float;
      (** estimate of kappa(M^-1 A) from the extreme eigenvalues of the
          Lanczos tridiagonal implicitly built by CG (alpha/beta
          coefficients); 1.0 when fewer than 2 iterations ran {e or when
          condition tracking is off}. This is the quantity a
          preconditioner is trying to shrink, reported independently of
          the iteration count. *)
}

(** Preallocated iteration state: the four PCG n-vectors (r, z, p, q) plus
    the preconditioner scratch buffer. Create once per dimension, reuse
    across every solve of that dimension. A workspace is owned by exactly
    one in-flight solve at a time — sharing one across interleaved solves
    corrupts both (see the ownership rules in DESIGN.md). *)
module Workspace : sig
  type t

  val create : int -> t
  (** [create n] allocates the five n-vectors. *)

  val dim : t -> int
end

val solve :
  ?rtol:float -> ?max_iter:int -> ?stall_window:int -> ?deadline:float ->
  ?x0:Sparse.Vec.t -> ?history:bool -> ?condition:bool ->
  a:Sparse.Csc.t -> b:Sparse.Vec.t -> precond:Precond.t -> unit -> result
(** [solve ~a ~b ~precond ()] runs PCG with a private, freshly allocated
    workspace. [rtol] defaults to [1e-6] (the paper's setting), [max_iter]
    to [500] (the paper's divergence cutoff), [stall_window] to [200]
    (iterations without a new best residual before declaring
    {!Stagnated}), [x0] to the zero vector. [deadline] is an {e absolute}
    wall-clock instant (same clock as {!Obs.now}); it is checked once per
    iteration, before the operator application, and an expired budget
    exits with {!Timed_out} carrying the true iteration count — the hook
    through which servers cancel runaway solves cooperatively. [history]
    and [condition] default to [true] here (one-shot solves want the full
    diagnostics); pass [false] to skip the O(iterations) residual history
    and the Lanczos coefficient lists. If [b] is zero the zero solution is
    returned immediately. *)

val solve_operator_into :
  ?rtol:float -> ?max_iter:int -> ?stall_window:int -> ?deadline:float ->
  ?warm_start:bool -> workspace:Workspace.t -> x:Sparse.Vec.t ->
  apply_a:(Sparse.Vec.t -> Sparse.Vec.t -> unit) ->
  b:Sparse.Vec.t -> precond:Precond.t -> unit -> result
(** Matrix-free, in-place solve for the factor-once / solve-many path:
    [apply_a x y] computes [y <- A x] (pass [Sparse.Csc.spmv_sym_into a]
    for a stored symmetric matrix). All iteration vectors come from
    [workspace]; the solution is written into [x] (result.[x] is
    physically that buffer). With [warm_start] (default [true]) the entry
    content of [x] is the initial guess; with [~warm_start:false] [x] is
    zeroed first and the initial residual computation skips one operator
    application. No residual history or condition estimate is kept, so
    the loop allocates nothing proportional to n or to the iteration
    count. [deadline] behaves as in {!solve}. Raises [Invalid_argument]
    when [b], [x] and the workspace dimensions disagree. *)
