(** Elimination tree utilities for sparse symmetric factorization
    (Davis, "Direct Methods for Sparse Linear Systems", ch. 4): the tree
    and row patterns behind the exact {!Chol} factorization. The
    randomized factorization needs no tree: its parallel schedule comes
    from the ordering, and an updatable factor's refactor closure from
    its own pattern (see {!Rand_chol}). *)

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
