(** Aggregation-based algebraic multigrid.

    This is the AMG-PCG baseline standing in for the solver inside
    PowerRush [Yang/Li/Cai/Zhou, TVLSI'14]: a V-cycle preconditioner built
    by greedy strength-based aggregation with Galerkin (piecewise-constant)
    coarsening and symmetric Gauss–Seidel smoothing. The forward-GS
    pre-smoothing / backward-GS post-smoothing pair keeps the V-cycle
    symmetric positive definite, as PCG requires.

    The hierarchy is built once per matrix; [preconditioner] wraps one
    V-cycle per application. *)

type t

type smoother =
  | Gauss_seidel  (** symmetric GS: forward pre-sweeps, backward post *)
  | Jacobi of float  (** weighted Jacobi with the given damping factor *)

val build :
  ?theta:float -> ?max_levels:int -> ?coarse_size:int -> ?pre_sweeps:int ->
  ?post_sweeps:int -> ?smoother:smoother -> ?smooth_prolongation:float ->
  Sparse.Csc.t -> t
(** [build a] constructs the hierarchy for a symmetric matrix [a].
    [theta] (default 0.08) is the strength threshold
    [|a_ij| >= theta * sqrt(a_ii a_jj)]; [max_levels] defaults to 20;
    [coarse_size] (default 200) stops coarsening and triggers a direct
    solve; [pre_sweeps]/[post_sweeps] default to 1; [smoother] defaults to
    {!Gauss_seidel} (damped Jacobi is the cheaper, weaker alternative some
    production AMG solvers use for parallelism). Passing
    [smooth_prolongation omega] turns on smoothed aggregation
    ([P = (I - omega D^-1 A) P_tent], typically [omega ~ 0.66]), which
    buys a better convergence factor for denser coarse operators. *)

val n_levels : t -> int

val operator_complexity : t -> float
(** Total stored nonzeros across levels divided by fine-level nonzeros —
    the standard AMG memory metric. *)

val grid_sizes : t -> int array
(** Unknown counts per level, finest first. *)

val v_cycle : t -> Sparse.Vec.t -> Sparse.Vec.t -> unit
(** [v_cycle t b x] runs one V-cycle for [A x = b] starting from [x = 0]
    and writes the result into [x]. Reentrant: each call takes level
    buffers no other running call holds from a pool on [t], so a
    sequential caller allocates them once. *)

val solve :
  ?rtol:float -> ?max_iter:int -> t -> Sparse.Vec.t ->
  Sparse.Vec.t * int * bool
(** Standalone AMG iteration (repeated V-cycles, no Krylov acceleration):
    returns [(x, cycles, converged)]. *)

val preconditioner : t -> Krylov.Precond.t
(** One V-cycle as a PCG preconditioner. *)
