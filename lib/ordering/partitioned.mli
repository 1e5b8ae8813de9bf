(** Partition-aware degree-sort ordering (Alg. 4 + recursive bisection).

    Recursively bisects the graph with BFS level cuts (separators emitted
    after both halves), then degree-sorts every block on its induced
    subgraph with {!Degree_sort.order_slots}. Every leaf block of the
    recursion is a range of positions that no edge joins to an earlier
    position, which is what lets the randomized factorization run the
    leaf blocks ahead on the pool ([Factor.Rand_chol.factorize ~blocks]);
    plain {!Degree_sort} leaves no such ranges. Deterministic: depends
    only on the graph and [heavy_factor], never on domain count. Runs over
    flat arrays in O(n) words of working memory and O((n + m) · depth)
    time. *)

val order : ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t
(** [order g] returns a permutation (position -> vertex). [heavy_factor]
    (default 10) is Alg. 4's heavy-edge factor inside every block. Leaf
    blocks hold at most [max 1024 (ceil (n / 64))] vertices; graphs at or
    below 1024 vertices are a single degree-sorted block. *)

val order_with_blocks :
  ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t * (int * int) array
(** [order_with_blocks g] is [order g] together with its nonempty leaf
    blocks, as ascending, disjoint position ranges [\[lo, hi)]. Each is
    backward-closed in the permuted graph: no edge joins a position in
    [\[lo, hi)] to a position below [lo]. Separator positions belong to
    no block. *)
