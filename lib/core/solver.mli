(** Uniform solver interface over PowerRChol and all baselines.

    Every solver is a {e preparation} step (reordering + preconditioner
    construction, timed separately as the paper's [T_r] and [T_f]) followed
    by PCG iteration ([T_i], [N_i]). The benchmark tables are produced by
    running the same problems through each [t].

    A {!prepared} value is a first-class, reusable handle for the
    factor-once / solve-many workload: keep it and call {!solve_prepared} /
    {!solve_many} for every new right-hand side — the reordering and
    factorization are paid exactly once. Nothing caches handles behind the
    caller's back; reuse means holding on to the value. *)

type prepared = {
  solver_name : string;  (** name of the solver that built the handle *)
  problem : Sddm.Problem.t;  (** the system the factorization belongs to *)
  precond : Krylov.Precond.t;
  workspace : Krylov.Pcg.Workspace.t;
      (** owned PCG iteration buffers. Ownership rule: a handle serves one
          solve at a time — {!solve_prepared} calls on the same handle
          must be sequential (they are everywhere in this codebase, which
          is single-threaded). *)
  t_reorder : float;  (** seconds spent computing the permutation *)
  t_precond : float;  (** seconds spent building the preconditioner *)
  factor_nnz : int;  (** stored nonzeros of the preconditioner *)
}

type t = {
  name : string;
  prepare : Sddm.Problem.t -> prepared;
}

type result = {
  solver : string;
  x : Sparse.Vec.t;
  iterations : int;
  status : Krylov.Pcg.status;  (** typed PCG exit status *)
  converged : bool;  (** derived view: [status = Converged] *)
  residual : float;  (** true relative residual, recomputed from [x] *)
  t_reorder : float;
  t_precond : float;
  t_iterate : float;
  t_total : float;
  factor_nnz : int;
}

val prepare : t -> Sddm.Problem.t -> prepared
(** [prepare solver problem] reorders and factorizes once, returning the
    reusable handle. Recorded under the Obs span ["prepare"]. *)

val make_prepared :
  solver_name:string -> Sddm.Problem.t -> precond:Krylov.Precond.t ->
  t_reorder:float -> t_precond:float -> factor_nnz:int -> prepared
(** Assemble a handle from its parts (fresh PCG workspace, preconditioner
    size gauge recorded). The construction path shared by every solver's
    [prepare] and by {!Engine}'s session layer. *)

val solve_prepared :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> ?x0:Sparse.Vec.t ->
  ?b:Sparse.Vec.t -> prepared -> result
(** [solve_prepared p] runs PCG against the prepared factorization.
    [b] defaults to the right-hand side of the prepared problem; pass a
    different [b] (of the same dimension) to solve the same matrix for a
    new load vector. [deadline] (absolute wall-clock instant, {!Obs.now}
    clock) cancels the iteration cooperatively — see [Pcg.solve].

    {b Marginal-cost semantics:} the returned [t_reorder]/[t_precond] are
    0 and [t_total = t_iterate]; the one-time preparation cost lives on
    the handle. [residual] is verified against the actual [b] solved. *)

val solve_many :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> prepared ->
  Sparse.Vec.t array -> result array
(** [solve_many p bs] amortizes one factorization over a batch of
    right-hand sides. With one domain, or while another {!Par} region
    fans out, the batch runs sequentially on the handle's workspace;
    with more domains it is split by [Par.parallel_for] into contiguous
    chunks, one private workspace per chunk, each chunk after the first
    on a domain spawned for this batch and joined before it returns.
    This batch fan-out is the library's only parallel region: each chunk
    runs whole sequential solves, so result [k] is bit-identical to
    [solve_prepared ~b:bs.(k) p] at any domain count.

    Telemetry stays live at any domain count: the batch is one
    ["solve_many"] span containing a ["solve#k"] span per right-hand
    side (k = batch index), with per-solve wall times in the
    ["solve_many/solve_seconds"] histogram. On the parallel path each
    chunk records into a store of its own, folded into the caller's in
    chunk order before [solve_many] returns, so a profiled batch, and
    whatever the caller records after it, reports the same paths in the
    same order and bit-identical counter totals as the sequential run
    (plus the [par/busy_s#i] / [par/imbalance] load counters). *)

val run :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> t -> Sddm.Problem.t ->
  result
(** The one-shot path: [solver.prepare] then {!solve_prepared}, with the
    handle's [t_reorder]/[t_precond] folded back into the result so
    [t_total = t_reorder + t_precond + t_iterate]. [rtol] defaults to
    1e-6 and [max_iter] to 500, the paper's settings. To reuse one
    preparation across tolerances or right-hand sides, call {!prepare}
    once and {!solve_prepared} per solve, adding the handle's times where
    a full-cost total is wanted. *)

(** {1 Solver constructors}

    All randomized solvers are deterministic given [seed]
    (default [20240623]). *)

type ordering =
  | Amd
  | Natural
  | Degree_sort
  | Rcm
  | Nested_dissection
  | Partitioned
      (** Recursive bisection with Alg. 4 degree sort inside each block
          ([Ordering.Partitioned]). Named ["part"]. *)

val ordering_name : ordering -> string

val apply_ordering : ordering -> Sddm.Graph.t -> Sparse.Perm.t
(** The permutation (position -> vertex) the ordering computes. *)

val powerrchol : ?heavy_factor:float -> ?seed:int -> unit -> t
(** The paper's solver: partitioned Alg. 4 reordering
    ({!powerrchol_order}) + LT-RChol (Alg. 3) + PCG. *)

val powerrchol_prepare : ?seed:int -> Sddm.Problem.t -> prepared
(** [(powerrchol ?seed ()).prepare]: the paper's preparation with the
    default heavy factor. *)

val powerrchol_order : ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t
(** The ordering every powerrchol preparation uses: partitioned Alg. 4
    ([Ordering.Partitioned.order], [heavy_factor] defaulting to
    {!default_heavy_factor}). Shared by {!powerrchol}, the robust chain's
    powerrchol rungs and {!Engine.Session}, so it is the one place the
    PowerRChol ordering is chosen. The paper's method is plain Alg. 4
    ([lt_rchol ~ordering:Degree_sort]); the partitioning stays for the
    ECO sessions' locality (an edit's re-elimination closure stays in
    its grid region), and because the benchmark ledger's traced solve
    pins this ordering and the [golden] test rows record its bits. *)

val rchol : ?ordering:ordering -> ?seed:int -> unit -> t
(** Original RChol (Alg. 1) preconditioner; default AMD ordering, the
    configuration of [3] used as baseline in Table 1. *)

val lt_rchol : ?ordering:ordering -> ?seed:int -> unit -> t
(** LT-RChol with a chosen ordering — the Table 2 rows. *)

val rand_chol_custom :
  name:string -> sort:Factor.Rand_chol.sort ->
  sampling:Factor.Rand_chol.sampling -> ordering:ordering -> ?seed:int ->
  unit -> t
(** Fully custom randomized-Cholesky solver (ablation benches). *)

val rand_chol_prepare :
  name:string -> order:(Sddm.Graph.t -> Sparse.Perm.t) ->
  factorize:(rng:Rng.t -> Sddm.Graph.t -> d:float array -> 'f) ->
  lower:('f -> Factor.Lower.t) -> seed:int -> Sddm.Problem.t ->
  Sparse.Perm.t * 'f * prepared
(** The one randomized-Cholesky preparation, behind every solver above
    and {!Engine.Session}: [order] the graph under the Obs span
    ["reorder"] (timed as [t_reorder]), permute the graph and the excess
    diagonal, [factorize] them from a fresh [Rng.create seed] under the
    span ["factor"] (timed as [t_precond]), and wrap the factor [lower]
    reads from the factorization as the handle's preconditioner, named
    [name]. Returns the permutation and
    the factorization with the handle, for a caller that updates the
    factor in place. *)

val fegrass : ?recover_fraction:float -> unit -> t
(** feGRASS-PCG [11]: sparsifier (2%·|V| recovered edges) factorized
    exactly under AMD. *)

val fegrass_ichol : ?recover_fraction:float -> ?drop_tol:float -> unit -> t
(** feGRASS-IChol-PCG [9]: 50%·|V| recovery + ICT(8.5e-6). *)

val amg_pcg : ?theta:float -> ?smoother:Amg.smoother -> unit -> t
(** AMG-PCG [14] (the PowerRush solver core). [smoother] defaults to
    symmetric Gauss-Seidel; see {!Amg.build}. *)

val direct : unit -> t
(** AMD + exact Cholesky as a "preconditioner": PCG converges in one
    iteration; total time is dominated by factorization. Sanity baseline. *)

val jacobi : unit -> t
(** Diagonal preconditioning; the weak baseline. *)

val default_seed : int
val default_heavy_factor : float

(** {1 Hardened solve path}

    The production entry point for untrusted input: pre-flight diagnostics
    ({!Robust.Diagnose}), per-island solving for disconnected grids, and a
    deterministic fallback chain
    [powerrchol -> reseed-and-retry xk -> rchol(amd) -> jacobi -> direct]
    whose every rung is verified against the {e true} residual. A bad input
    yields a structured report — never a silent wrong answer.

    Each island of the system runs its own chain (a connected system is
    one island). The powerrchol rung prepares exactly like {!powerrchol}
    (or solves with a caller's handle from it), so on a healthy connected
    system it wins with the same solution {!run} gives. Two
    reseed-and-retry rungs follow it, sharing the island's one lazily
    computed permutation: a reseed re-runs only the randomized
    factorization. *)

type robust_result = {
  diagnostics : Robust.Diagnose.report;  (** the pre-flight report *)
  outcome : robust_outcome;
}

and robust_outcome =
  | Robust_solved of {
      x : Sparse.Vec.t;
      winner : string;
          (** rung that produced the verified solution; for multi-island
              solves, the distinct winning rungs joined with [+] *)
      iterations : int;  (** summed over islands *)
      residual : float;  (** verified true relative residual *)
      attempts : Robust.Fallback.attempt list;
          (** rungs that failed before the winner (prefixed [c<i>/] per
              island on disconnected systems) *)
    }
  | Robust_rejected of { reasons : string list }
      (** fatal pre-flight diagnostics: solving was not attempted *)
  | Robust_exhausted of { attempts : Robust.Fallback.attempt list }
      (** every rung failed; the trace says why, rung by rung *)

val solve_robust :
  ?rtol:float -> ?max_iter:int -> ?seed:int -> ?deadline:float ->
  ?prepared:prepared -> Sddm.Problem.t -> robust_result
(** [rtol] defaults to 1e-6, [max_iter] to 500, [seed] to
    {!default_seed}. [deadline] (absolute wall-clock instant) bounds the
    {e whole chain}: it is propagated into every rung's PCG loop and
    checked between rungs, so an expired budget surfaces as [Timed_out]
    attempts instead of further escalation.
    Without [deadline], deterministic given [seed]: two runs produce
    identical outcomes and byte-identical {!robust_trace}s.

    [prepared] lends the first rung an existing handle instead of a fresh
    preparation. It must come from [powerrchol ~seed ()], so the outcome
    is the one the chain reaches without it. The rung uses it only when
    its [problem] is physically the one passed here and that system is
    one island ([diagnostics.components = 1]); the islands of a
    disconnected grid are other systems, and prepare afresh. *)

val robust_ok : robust_result -> bool
(** True iff the outcome is [Robust_solved]. *)

val robust_trace : robust_result -> string
(** Deterministic one-line trace: diagnostics summary, each failed rung
    with its reason, final verdict. *)

val solve_matrix_robust :
  ?rtol:float -> ?seed:int -> ?name:string -> a:Sparse.Csc.t ->
  b:Sparse.Vec.t -> unit -> robust_result
(** Like {!solve_robust} but accepts a raw, possibly corrupted matrix: the
    pre-flight diagnostics run {e before} SDDM validation, so NaN entries,
    asymmetry, lost dominance, zero rows, and floating islands come back as
    a structured [Robust_rejected] report instead of an exception. *)

val pp_result : Format.formatter -> result -> unit
(** One-paragraph human-readable report (phase times, iterations,
    residual). *)

val pp_robust : Format.formatter -> robust_result -> unit
(** Human-readable diagnostic report plus fallback trace. *)

(** {1 Telemetry}

    {!with_obs} enables the {!Obs} layer for the duration of one plain
    call and returns the captured record alongside its value: phase spans
    ([reorder] / [factor] / [pcg] with sub-spans for the bucket sort,
    target-array merge, and triangular solves), counters (sampled clique
    edges, fill-in nonzeros, [precond_nnz_ratio], PCG iterations, fallback
    escalations), and the meta header [meta_of] derives from the value.
    A profiled one-shot solve is
    [with_obs ~meta_of:(result_meta problem) (fun () -> run solver problem)];
    a profiled robust solve passes {!robust_meta_of}. *)

val with_obs :
  meta_of:('a -> (string * Obs.Json.t) list) -> (unit -> 'a) ->
  'a * Obs.record
(** Reset the calling domain's {!Obs} store and enable recording, run
    the thunk, capture the record with [meta_of]'s header, and restore
    the previous enabled state (also on exception). *)

val result_meta : Sddm.Problem.t -> result -> (string * Obs.Json.t) list
(** Meta header for a {!result}: solver, case, dimensions, iterations,
    status, residual and the phase times, mirroring the result. *)

val robust_meta_of :
  case:string -> n:int -> nnz:int -> robust_result ->
  (string * Obs.Json.t) list
(** Meta header for a {!robust_result}: outcome, winner, iterations,
    residual and failed rungs. Takes the raw dimensions so callers holding
    only a matrix (no {!Sddm.Problem.t}) can use it. *)
