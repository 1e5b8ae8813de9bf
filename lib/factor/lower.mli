(** Storage for lower-triangular Cholesky-type factors.

    Unlike {!Sparse.Csc}, rows within a column are {e not} required to be
    sorted — the randomized factorizations emit neighbors in weight order
    and sorting them would break LT-RChol's linear-time bound. The only
    structural invariant is that each column's {e first} stored entry is its
    diagonal. Triangular solves do not need sorted columns.

    Storage is native OCaml arrays on the heap, 16 bytes per stored entry
    (an [int] row index and a [float] value) plus 8 per column pointer,
    where {!Sparse.Csc} keeps {!Sparse.Idx.t} indices (4 bytes on the
    default build) and {!Sparse.Vec.t} values off the heap. Every PCG
    iteration reads all of L twice, and a native index is one load in the
    address chain of each [x] access, where a Bigarray index adds a data
    pointer load, a sign extension and a retag. The sweeps give the same
    bits over either layout and run faster over this one (DESIGN §13 has
    the measurements). *)

type t = private {
  n : int;
  col_ptr : int array;  (** length [n + 1] *)
  rows : int array;
  vals : float array;
  mutable diag_cache : float array option;
  mutable refactor_buf : float array;
      (** column scratch for {!refactor_columns}, cached on the factor so
          steady-state ECO refactors allocate nothing *)
}

val of_arrays :
  n:int -> col_ptr:int array -> rows:int array -> vals:float array -> t
(** Validates: [col_ptr] of length [n + 1] starting at 0, every column
    non-empty and ending at or before [col_ptr.(n)], diagonal-first
    columns, in-bounds subdiagonal rows, strictly positive diagonal
    values. [rows] and [vals] may be longer than [col_ptr.(n)]. The factor
    takes ownership of the three arrays, without a copy: the triangular
    solves read them unchecked, so the caller must not write them
    afterwards. *)

val nnz : t -> int
val dim : t -> int

val diag : t -> float array
(** The diagonal of the factor. Computed on first call and cached on the
    factor — callers must not mutate the returned array. *)

val to_csc : t -> Sparse.Csc.t
(** Sorted CSC copy, for tests and inspection. *)

val of_csc : Sparse.Csc.t -> t
(** From a lower-triangular CSC matrix with positive diagonal. *)

val solve_in_place : t -> Sparse.Vec.t -> unit
(** [solve_in_place l x] overwrites [x] with [L^-1 x] (forward
    substitution). Sequential column scatter. Raises [Invalid_argument]
    when the vector length does not match the factor. *)

val solve_transpose_in_place : t -> Sparse.Vec.t -> unit
(** [solve_transpose_in_place l x] overwrites [x] with [L^-T x] (backward
    substitution). Sequential column gather. Raises [Invalid_argument]
    when the vector length does not match the factor. *)

val apply_preconditioner :
  t -> perm:Sparse.Perm.t -> scratch:Sparse.Vec.t -> Sparse.Vec.t ->
  Sparse.Vec.t -> unit
(** [apply_preconditioner l ~perm ~scratch r z] computes
    [z <- P^T L^-T L^-1 P r] — the PCG preconditioning step of the paper
    (§3.3 step 4), where [perm] maps new indices to old and [l] factors the
    reordered matrix. [scratch] must have length at least [n]; [r] and [z]
    may not alias. Sequential at every domain count: the two substitutions
    are {!solve_in_place} and {!solve_transpose_in_place}. Raises
    [Invalid_argument] on length mismatches. *)

val refactor_columns :
  t -> cols:int array -> emit:(int -> float array -> unit) -> unit
(** [refactor_columns l ~cols ~emit] overwrites the stored {e values} of
    each listed column in place, keeping the pattern: for each column [j]
    of [cols] in order, [emit j buf] must fill [buf.(0 .. k - 1)], [k]
    being column [j]'s stored entry count (diagonal included), with the
    new values in stored order (diagonal first, strictly positive —
    checked). A column's storage is updated before the next
    column's [emit] runs, so [emit] may read already-refactored columns.
    The cached diagonal is co-updated, not invalidated or rebuilt. Raises
    [Invalid_argument] on an out-of-range column or a nonpositive diagonal
    (the factor may then hold a mix of old and new values — callers
    escalate to a full re-factorization).

    The column buffer is cached on the factor across calls (grown
    geometrically), so a steady-state refactor loop allocates nothing. *)

val multiply : t -> Sparse.Csc.t
(** [multiply l] forms [L * L^T] as CSC — the preconditioner matrix itself.
    Test helper for factorization-accuracy checks. *)
