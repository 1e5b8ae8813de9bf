(** Compressed sparse column matrices.

    The storage convention is the classic CSC triple: [col_ptr] has
    [n_cols + 1] entries; the entries of column [j] live at positions
    [col_ptr.(j) .. col_ptr.(j+1) - 1] of [row_idx] / [values], with row
    indices sorted strictly ascending within each column (guaranteed by every
    constructor here). Explicit zeros are permitted but constructors drop
    them unless noted.

    Storage is Bigarray-backed: [values] is a {!Vec.t} (flat float64) and
    the index arrays are {!Idx.t}, whose element width (int32 by default,
    native word under [POWERRCHOL_IDX64]) is picked at build time. On the
    32-bit-index build every constructor raises [Invalid_argument] with an
    actionable message for matrices at or beyond 2^31 nonzeros. *)

type t = private {
  n_rows : int;
  n_cols : int;
  col_ptr : Idx.t;
  row_idx : Idx.t;
  values : Vec.t;
}

val dims : t -> int * int
val nnz : t -> int

val of_triplet : Triplet.t -> t
(** Compress a COO builder; duplicate entries are summed, entries that sum
    to exactly [0.] are kept (they are structurally meaningful), entries
    added as [0.] are kept too. Rows sorted per column. *)

val of_bucketed :
  n_rows:int -> n_cols:int -> col_ptr:Idx.t -> row_idx:Idx.t -> values:Vec.t -> t
(** Finish a bucketed two-pass build without a triplet list: [col_ptr]
    holds the per-column bucket boundaries (prefix sums, so bucket [j]
    spans [col_ptr.(j) .. col_ptr.(j+1) - 1]) and [row_idx]/[values] the
    bucket contents in arrival order, possibly unsorted and with
    duplicates. Sorts each column, sums duplicates, and takes ownership of
    the buffers (they are compacted in place). The duplicate-summation
    order is shared with {!of_triplet}, so a stream-built matrix is
    bit-for-bit identical to the triplet-built one. The caller must have
    bounds-checked the row indices. *)

val of_dense : float array array -> t
(** Build from a row-major dense matrix, dropping exact zeros. Test helper.
    Raises [Invalid_argument] when the rows differ in length. *)

val to_dense : t -> float array array
(** Expand to row-major dense. Test helper; O(n_rows * n_cols). *)

val of_raw :
  n_rows:int -> n_cols:int -> col_ptr:Idx.t -> row_idx:Idx.t ->
  values:Vec.t -> t
(** Wrap pre-built arrays. Validates the CSC invariants (monotone pointers,
    in-bounds sorted rows); raises [Invalid_argument] on violation. *)

val identity : int -> t

val get : t -> int -> int -> float
(** [get a i j] is [a(i,j)], 0. if not stored. Binary search per call.
    Raises [Invalid_argument] when [(i, j)] is outside the matrix. *)

val spmv : t -> Vec.t -> Vec.t
(** [spmv a x] allocates [a * x]. *)

val spmv_into : t -> Vec.t -> Vec.t -> unit
(** [spmv_into a x y] computes [y <- a * x] without allocating. Raises
    [Invalid_argument] when [x] is not [n_cols] long or [y] not [n_rows]
    long; the check is not an assertion, so it holds under [-noassert]
    too. *)

val spmv_sym_into : t -> Vec.t -> Vec.t -> unit
(** [spmv_sym_into a x y] computes [y <- a * x] for a {e symmetric} [a] in
    gather form: [y.(i)] is accumulated from column [i] (= row [i] by
    symmetry), so each output element is written once, with no zero-fill
    pass and no scattered read-modify-write. It runs on the calling
    domain. The caller asserts symmetry; for an asymmetric matrix this
    computes [a^T * x]. Produces the same floating-point result as
    {!spmv_into} on symmetric input (same per-row term order). Raises
    [Invalid_argument] when [a] is not square or the vector lengths
    disagree. *)

val spmv_t : t -> Vec.t -> Vec.t
(** [spmv_t a x] is [a^T * x]. Raises [Invalid_argument] when [x] is not
    [n_rows] long. *)

val spmv_t_into : t -> Vec.t -> Vec.t -> unit
(** [spmv_t_into a x y] computes [y <- a^T * x] without allocating, with
    {!spmv_t}'s arithmetic. Raises [Invalid_argument] when [x] is not
    [n_rows] long or [y] not [n_cols] long. *)

val transpose : t -> t

val symmetrize_check : t -> bool
(** True when the matrix equals its transpose exactly (pattern and values). *)

val permute_sym : t -> Perm.t -> t
(** [permute_sym a p] is [P A P^T] for a square [a]: entry [(i,j)] of the
    result is [a(p.(i), p.(j))]. The permutation maps new indices to old.
    Raises [Invalid_argument] when [a] is not square or [p] is not [n_cols]
    long. *)

val lower : t -> t
(** Keep entries with [row >= col] (lower triangle incl. diagonal). *)

val upper : t -> t
(** Keep entries with [row <= col]. *)

val diag : t -> Vec.t
(** Diagonal as a dense vector (0. where absent). Raises
    [Invalid_argument] when [a] is not square. *)

val map : t -> (float -> float) -> t
(** Apply a function to all stored values (pattern unchanged). *)

val add : t -> t -> t
(** Sparse matrix sum. Raises [Invalid_argument] when the dimensions
    differ. *)

val scale : t -> float -> t

val mul : t -> t -> t
(** General sparse matrix product [a * b]. Gustavson's algorithm. Raises
    [Invalid_argument] when [a]'s column count is not [b]'s row count. *)

val drop : t -> (int -> int -> float -> bool) -> t
(** [drop a keep] retains entries where [keep i j v] is true. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col a j f] calls [f row value] over column [j]'s stored entries.
    Raises [Invalid_argument] when [j] is not a column of [a]. *)

val fold_nonzeros : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a

val frobenius_diff : t -> t -> float
(** Frobenius norm of the difference. Test helper. Raises
    [Invalid_argument] when the dimensions differ. *)

val one_norm : t -> float
(** Maximum column sum of absolute values. *)

val bytes : t -> int
(** Resident bytes of the CSC storage proper (pointers + rows + values);
    the bytes/nnz figure the scale bench reports is [bytes a / nnz a]. *)
