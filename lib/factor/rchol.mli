(** Original randomized Cholesky factorization — Algorithm 1 of the paper
    (RChol, Chen/Liang/Biros 2021): exact comparison sort of neighbors plus
    per-neighbor binary-search sampling, O(|L| log(|L|/N)) total. *)

val factorize :
  rng:Rng.t -> Sddm.Graph.t -> d:float array -> Lower.t
(** See {!Rand_chol.factorize}; this is
    [factorize ~sort:Exact_sort ~sampling:Per_neighbor]. *)
