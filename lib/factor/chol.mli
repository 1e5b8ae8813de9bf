(** Exact sparse Cholesky factorization [A = L L^T] (up-looking,
    CSparse-style). Serves as the direct-solver baseline and as the exact
    factorizer for feGRASS sparsifiers.

    The input must be symmetric positive definite; SDDM matrices with a
    nonempty excess diagonal per component qualify. *)

exception Not_positive_definite of int
(** Raised with the offending column when a pivot is nonpositive. *)

val factorize : Sparse.Csc.t -> Lower.t
(** Factor without reordering (apply {!Sparse.Csc.permute_sym} first if a
    fill-reducing permutation is wanted). Raises
    {!Not_positive_definite}, and [Invalid_argument] on a non-square
    matrix. *)

val solve : Sparse.Csc.t -> Sparse.Vec.t -> Sparse.Vec.t
(** [solve a b] factors and solves in one call (no reuse). *)

val solve_factored : Lower.t -> Sparse.Vec.t -> Sparse.Vec.t
(** Triangular solve pair with a precomputed factor. *)
