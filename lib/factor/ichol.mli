(** Threshold-based incomplete Cholesky factorization (ICT).

    Left-looking column factorization that drops subdiagonal entries whose
    magnitude falls below [drop_tol] times the 1-norm of the corresponding
    column of [A] (MATLAB [ichol(.,'ict')] semantics). Used by the
    feGRASS-IChol baseline [Li et al., TCAD'23], which factors a 50%-edge
    sparsifier with drop tolerance 8.5e-6.

    Breakdown (a nonpositive pivot, possible for incomplete factorization
    even on SPD input) is handled by the standard diagonal-shift retry:
    factor [A + alpha diag(A)] with geometrically growing [alpha]. *)

exception Breakdown of int
(** Nonpositive pivot at the carried column during one factorization
    attempt. [factorize] retries with diagonal shifts internally; the
    exception is exposed so robustness layers can classify breakdowns from
    lower-level callers. *)

val factorize :
  ?drop_tol:float -> ?initial_shift:float -> ?max_tries:int ->
  Sparse.Csc.t -> Lower.t
(** [factorize a] returns an incomplete factor [L] with [L L^T ≈ A].
    [drop_tol] defaults to [1e-4]; [initial_shift] (first nonzero alpha
    tried after the unshifted attempt) to [1e-3]; [max_tries] to [12].
    Raises [Failure] if every shift attempt breaks down, and
    [Invalid_argument] on a non-square matrix. *)
