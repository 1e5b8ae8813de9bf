(** Elimination tree utilities for sparse symmetric factorization
    (Davis, "Direct Methods for Sparse Linear Systems", ch. 4): the tree
    and row patterns behind the exact {!Chol} factorization, and the
    ancestor closure that bounds an updatable randomized factor's
    refactor. The randomized factorization itself needs no tree: its
    parallel schedule comes from the ordering (see {!Rand_chol}). *)

val etree : Sparse.Csc.t -> int array
(** [etree a] is the elimination-tree parent array of the symmetric matrix
    [a] (using its upper triangle); roots have parent [-1]. *)

val ereach :
  Sparse.Csc.t -> int -> parent:int array -> mark:int array -> stamp:int ->
  stack:int array -> int
(** [ereach a k ~parent ~mark ~stamp ~stack] computes the nonzero pattern of
    row [k] of the Cholesky factor: the columns [j < k] with [L(k,j) <> 0],
    stored topologically (ancestors last) in [stack.(top .. n-1)], returning
    [top]. [mark] must be an int workspace (length n) whose entries differ
    from [stamp] on entry for unvisited nodes; the caller supplies a fresh
    [stamp] per call. [mark.(k)] is set to [stamp]. *)

val reach :
  parent:int array -> seeds:int array -> mark:int array -> stamp:int ->
  limit:int -> int
(** [reach ~parent ~seeds ~mark ~stamp ~limit] marks (with [stamp]) every
    node on a root-ward path from any seed — the ancestor closure of the
    seed set, i.e. exactly the columns whose factor values an edit at the
    seeds can touch — and returns its size. Marked walks keep the cost
    proportional to the output. Returns [-1] (leaving a partial marking)
    as soon as the closure exceeds [limit]; [mark] entries must differ
    from [stamp] on entry. Raises [Invalid_argument] on an out-of-range
    seed. *)
