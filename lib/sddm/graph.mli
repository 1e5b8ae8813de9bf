(** Weighted undirected graphs backing SDDM matrices.

    A graph holds [n] vertices and a multiset of weighted undirected edges
    with strictly positive weights. Parallel edges are allowed at
    construction and coalesced by {!coalesce} (the Laplacian is identical
    either way). Self-loops are rejected. *)

type t

val create : n:int -> edges:(int * int * float) array -> t
(** [create ~n ~edges] validates 0 <= u,v < n, u <> v, w > 0. *)

val of_arrays : n:int -> us:int array -> vs:int array -> ws:float array -> t
(** Variant of {!create} over parallel arrays, validated the same way.
    Raises [Invalid_argument] when [us], [vs] and [ws] differ in length. *)

val n_vertices : t -> int
val n_edges : t -> int

val edge : t -> int -> int * int * float
(** [edge g e] is the e-th edge as [(u, v, w)] with [u < v]. *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit

val coalesce : t -> t
(** Merge parallel edges by summing weights. The result lists its edges
    in ascending [(u, v)] order, one per distinct pair, and sums the
    copies of a pair in their input order. O(n + m). *)

(** {1 Adjacency view}

    Built lazily on first use and cached. *)

type adjacency = {
  ptr : int array;  (** length [n + 1] *)
  nbr : int array;  (** neighbour per half-edge *)
  wgt : float array;  (** its edge weight *)
}

val adjacency : t -> adjacency
(** The cached adjacency of the coalesced graph, in compressed rows: the
    neighbours of [u] are [nbr.(k)], with weights [wgt.(k)], for [k] from
    [ptr.(u)] to [ptr.(u+1) - 1], in the order {!iter_neighbors} visits
    them. The arrays are the cache itself, shared with every later call
    on [g]: read them, never write them. For hot loops that a closure per
    neighbour would slow down. *)

val upper : t -> adjacency
(** The coalesced graph's edges grouped by their lower endpoint, in
    compressed rows: for [k] from [ptr.(u)] to [ptr.(u+1) - 1], edge [k]
    of {!coalesce}[ g]'s order joins [u] to [nbr.(k) > u] with weight
    [wgt.(k)]. A row lists its neighbours in ascending order, so it can
    be searched by bisection. [nbr] and [wgt] are the coalesced graph's
    own edge arrays, shared, not copied: read them, never write them.
    [ptr] is built on each call, in O(n + m); on a graph that {!coalesce}
    returned, edge [k] is [g]'s own edge [k]. *)

val degree : t -> int -> int
(** Number of (coalesced) incident edges. *)

val degrees : t -> int array

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors g u f] calls [f v w] for every neighbor (after
    coalescing). *)

val max_incident_weight : t -> float array
(** Per-vertex maximum incident edge weight ([w_max(i)] in Alg. 4);
    0. for isolated vertices. *)

val average_weight : t -> float
(** Mean edge weight ([w_avg] in Alg. 4); 0. for edgeless graphs. *)

val total_weight : t -> float

val connected_components : t -> int array * int
(** [connected_components g] labels every vertex with its component id in
    [0 .. c-1] and returns the count [c]. *)

(** {1 Laplacian / SDDM conversions} *)

val to_sddm : t -> float array -> Sparse.Csc.t
(** [to_sddm g d] is [L_G + diag d] (Eq. 1 of the paper); [to_sddm g]
    of an all-zero [d] is the Laplacian [L_G]. The result is SDDM
    whenever some [d.(i) > 0] in every component. Raises
    [Invalid_argument] unless [d] has length [n] and every entry is
    [>= 0.] (a NaN is rejected).

    It is built from {!coalesce}[ g]: one stored entry per edge in each
    of its two columns, [-w], and every diagonal, stored even when it
    is [0.], so the pattern has [n + 2m] entries for [m] coalesced
    edges. [A(j,j)] is the weights of [j]'s incident edges summed in
    {!coalesce}'s edge order, that is its lower neighbours ascending
    and then its upper neighbours ascending, plus [d.(j)] last. One
    pass over the edges writes each column already sorted: O(n + m),
    after the O(n + m) {!coalesce} when [g] is not coalesced. *)

val of_sddm : Sparse.Csc.t -> t * float array
(** Split a symmetric matrix with nonpositive off-diagonals into
    [(graph, excess_diagonal)] with [A = L_G + diag d]. Raises
    [Invalid_argument] if the matrix is not of that shape (asymmetric
    pattern, positive off-diagonal, or negative excess diagonal beyond a
    relative tolerance; tiny negative round-off is clamped to 0). *)

val is_sddm : Sparse.Csc.t -> bool
(** True when {!of_sddm} would succeed. *)

val permute : t -> Sparse.Perm.t -> t
(** Relabel vertices: vertex [p.(k)] of the input becomes vertex [k]. The
    result is coalesced: it is {!coalesce} of the relabelled edges, and
    {!coalesce} returns it unchanged. Raises [Invalid_argument] when [p]
    is not a permutation of [0 .. n-1]. *)
