(** Partition-aware degree-sort ordering (Alg. 4 + recursive bisection).

    Recursively bisects the graph with BFS level cuts (separators emitted
    after both halves), then degree-sorts every block on its induced
    subgraph with {!Degree_sort.order_slots}. A grid region's vertices
    stay together in the order, which keeps an ECO edit's re-elimination
    closure local (DESIGN.md §14). Deterministic: depends only on the
    graph and [heavy_factor]. Runs over flat arrays in O(n) words of
    working memory and O((n + m) · depth) time. *)

val order : ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t
(** [order g] returns a permutation (position -> vertex). [heavy_factor]
    (default 10) is Alg. 4's heavy-edge factor inside every block. Leaf
    blocks hold at most [max 1024 (ceil (n / 64))] vertices; graphs at or
    below 1024 vertices are a single degree-sorted block. *)
