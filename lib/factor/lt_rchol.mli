(** Linear-time randomized Cholesky factorization — Algorithm 3 of the
    paper (LT-RChol): approximate counting sort of neighbors plus
    shared-random two-pointer sampling (Alg. 2), O(|L|) total. *)

val default_buckets : int
(** The counting sort's bucket count (256). The bucket ablation sets
    others through [Rand_chol.Counting_sort]. *)

val factorize :
  ?blocks:(int * int) array -> rng:Rng.t -> Sddm.Graph.t -> d:float array ->
  Lower.t
(** See {!Rand_chol.factorize}; this is
    [factorize ~sort:(Counting_sort { buckets = default_buckets })
    ~sampling:Shared_random] under the Obs span ["lt_rchol"]. *)

val factorize_updatable :
  ?blocks:(int * int) array -> rng:Rng.t -> Sddm.Graph.t -> d:float array ->
  Rand_chol.updatable
(** {!Rand_chol.factorize_updatable} with the LT-RChol parameterization —
    the factorization behind the session layer's incremental updates. *)
