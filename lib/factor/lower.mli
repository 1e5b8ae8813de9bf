(** Storage for lower-triangular Cholesky-type factors.

    Unlike {!Sparse.Csc}, rows within a column are {e not} required to be
    sorted — the randomized factorizations emit neighbors in weight order
    and sorting them would break LT-RChol's linear-time bound. The only
    structural invariant is that each column's {e first} stored entry is its
    diagonal. Triangular solves do not need sorted columns.

    Storage is Bigarray-backed like {!Sparse.Csc}: index arrays are
    {!Sparse.Idx.t} (int32 by default, native word under
    [POWERRCHOL_IDX64]) and values are {!Sparse.Vec.t}. *)

type schedule = private {
  n_levels : int;  (** depth of the column dependency DAG *)
  level_ptr : int array;
      (** length [n_levels + 1]; level [lv]'s columns are
          [order.(level_ptr.(lv)) .. order.(level_ptr.(lv+1) - 1)] *)
  order : int array;
      (** all columns, grouped by level, ascending within each level *)
  level_of : int array;  (** level of each column *)
  row_ptr : Sparse.Idx.t;
      (** row-oriented copy of the factor for the gather-form forward
          solve: length [n + 1] *)
  row_cols : Sparse.Idx.t;
      (** per row: column indices ascending, diagonal last *)
  row_vals : Sparse.Vec.t;
  pos_in_row : Sparse.Idx.t;
      (** column-storage index -> position in [row_vals]; lets
          {!refactor_columns} keep the row-form copy coherent in place *)
}
(** Level schedule for parallel triangular solves: all columns of a level
    depend only on columns of strictly earlier levels, so each level's
    unknowns can be computed concurrently (gather form, one writer per
    element) with a barrier between levels. *)

type t = private {
  n : int;
  col_ptr : Sparse.Idx.t;  (** length [n + 1] *)
  rows : Sparse.Idx.t;
  vals : Sparse.Vec.t;
  mutable diag_cache : Sparse.Vec.t option;
  mutable sched_cache : schedule option;
  mutable refactor_buf : Sparse.Vec.t;
      (** column scratch for {!refactor_columns}, cached on the factor so
          steady-state ECO refactors allocate nothing *)
}

val of_raw :
  n:int -> col_ptr:Sparse.Idx.t -> rows:Sparse.Idx.t -> vals:Sparse.Vec.t -> t
(** Validates: diagonal-first columns, in-bounds subdiagonal rows, strictly
    positive diagonal values. *)

val of_arrays :
  n:int -> col_ptr:int array -> rows:int array -> vals:float array -> t
(** {!of_raw} from plain OCaml arrays (copies into Bigarray storage).
    Convenience for tests and small fixtures. *)

val nnz : t -> int
val dim : t -> int

val diag : t -> Sparse.Vec.t
(** The diagonal of the factor. Computed on first call and cached on the
    factor — callers must not mutate the returned array. *)

val schedule : t -> schedule
(** The level schedule (and row-form copy) of the factor, built on first
    call and cached. {!Krylov.Precond.of_factor} forces it at
    preparation time so the solve loop never pays the construction. *)

val par_solve_min : int
(** Factor dimension below which {!apply_preconditioner} always takes the
    sequential path regardless of the domain count (4096). *)

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

val solve_in_place_sched : t -> pool:Par.pool -> Sparse.Vec.t -> unit
(** Level-scheduled forward substitution over [pool]: levels run in
    ascending order, each level's unknowns gathered in parallel from the
    row-form copy. Same floating-point result as {!solve_in_place} (same
    per-unknown term order) at any domain count. *)

val solve_transpose_in_place_sched : t -> pool:Par.pool -> Sparse.Vec.t -> unit
(** Level-scheduled backward substitution over [pool]: levels run in
    descending order. Bit-identical to {!solve_transpose_in_place} at any
    domain count. *)

val apply_preconditioner :
  t -> perm:Sparse.Perm.t -> scratch:Sparse.Vec.t -> Sparse.Vec.t ->
  Sparse.Vec.t -> unit
(** [apply_preconditioner l ~perm ~scratch r z] computes
    [z <- P^T L^-T L^-1 P r] — the PCG preconditioning step of the paper
    (§3.3 step 4), where [perm] maps new indices to old and [l] factors the
    reordered matrix. [scratch] must have length at least [n]; [r] and [z]
    may not alias. Routes through the level-scheduled solves on the default
    {!Par} pool when [dim l >= par_solve_min] and more than one domain is
    available; sequential otherwise. Raises [Invalid_argument] on length
    mismatches. *)

val refactor_columns :
  t -> cols:int array -> emit:(int -> Sparse.Vec.t -> unit) -> unit
(** [refactor_columns l ~cols ~emit] overwrites the stored {e values} of
    each listed column in place, keeping the pattern: for each column [j]
    of [cols] in order, [emit j buf] must fill [buf.(0 .. k - 1)], [k]
    being column [j]'s stored entry count (diagonal included), with the
    new values in stored order (diagonal first, strictly positive —
    checked). A column's storage is updated before the next
    column's [emit] runs, so [emit] may read already-refactored columns.
    The cached diagonal and the schedule's row-form values are co-updated
    through {!schedule}'s [pos_in_row] map; because the pattern is
    unchanged the level structure stays valid, so neither cache is
    invalidated or rebuilt. Raises [Invalid_argument] on an out-of-range
    column or a nonpositive diagonal (the factor may then hold a mix of
    old and new values — callers escalate to a full re-factorization).

    The column buffer is cached on the factor across calls (grown
    geometrically), so a steady-state refactor loop allocates nothing. *)

val multiply : t -> Sparse.Csc.t
(** [multiply l] forms [L * L^T] as CSC — the preconditioner matrix itself.
    Test helper for factorization-accuracy checks. *)
