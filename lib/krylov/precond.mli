(** Preconditioner abstraction for PCG.

    A preconditioner is an [apply] function computing [z <- M^-1 r] for an
    SPD operator [M], plus bookkeeping used by the benchmark tables (nnz of
    the underlying factor, a descriptive name).

    {b Reentrancy.} A [t] value holds no mutable application state: two
    interleaved or concurrent [apply] calls never corrupt each other.
    Applications that need workspace either use the caller-provided
    [~scratch] buffer or allocate a fresh one per call (the
    triangular-solve path of {!of_factor}), or take one from a {!pool}
    that no other running application holds (AMG, Schwarz). The PCG
    workspace ({!Pcg.Workspace.t}) owns a scratch buffer precisely so the
    hot loop pays no per-apply allocation. *)

type t = {
  name : string;
  nnz : int;  (** stored nonzeros (factor or hierarchy); 0 for identity *)
  scratch_len : int;
      (** length of the scratch buffer [apply] can use; 0 when the
          application needs none. Always [<= n], so an n-sized buffer is
          universally sufficient. *)
  apply : ?scratch:Sparse.Vec.t -> Sparse.Vec.t -> Sparse.Vec.t -> unit;
      (** [apply ?scratch r z] writes [M^-1 r] into [z]; [r] and [z] must
          not alias. When [scratch] is omitted and [scratch_len > 0] a
          fresh buffer is allocated for the call (documented cost: one
          n-array per apply); pass a buffer of length [>= scratch_len] to
          avoid it. Raises [Invalid_argument] on a length mismatch. *)
}

val identity : int -> t
(** No preconditioning (plain CG). [apply] validates that both vectors
    have length [n] — a mismatched workspace fails loudly instead of
    silently blitting short. *)

val jacobi : Sparse.Csc.t -> t
(** Diagonal scaling. Validates vector lengths like {!identity}. *)

val of_factor : ?name:string -> perm:Sparse.Perm.t -> Factor.Lower.t -> t
(** [of_factor ~perm l] applies [P^T L^-T L^-1 P] — a Cholesky-type factor
    of the reordered matrix, as produced by RChol / LT-RChol / IChol /
    exact Cholesky. Reentrant: scratch comes from the caller or is
    allocated per apply, never captured. *)

val of_apply :
  name:string -> nnz:int -> (Sparse.Vec.t -> Sparse.Vec.t -> unit) -> t
(** Wrap an arbitrary application function (used by the AMG V-cycle and
    the Schwarz preconditioner); the wrapped function manages its own
    state, so [scratch_len = 0], and keeps the reentrancy promise above
    itself, as those two do through {!with_pooled}. *)

(** {1 Pooled workspaces} *)

type 'w pool
(** Workspaces of one kind (the AMG V-cycle's per-level vectors,
    Schwarz's per-block right-hand sides), built on demand. *)

val pool : (unit -> 'w) -> 'w pool
(** An empty pool whose workspaces [make ()] builds. *)

val with_pooled : 'w pool -> ('w -> 'a) -> 'a
(** [with_pooled p f] runs [f] on a workspace that no other running [f]
    holds (a free one, else a fresh one) and returns it to [p]
    afterwards. Safe across threads and domains; a sequential caller
    builds one workspace, on its first call. *)
