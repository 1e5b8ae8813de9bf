(** Randomized Cholesky factorization engine.

    Implements the node-elimination scheme of RChol [Chen, Liang, Biros '21]:
    eliminating node [k] replaces the clique its neighbors would form in
    exact Cholesky by a sampled spanning structure — one sampled edge per
    neighbor — whose expectation equals the clique (unbiased), keeping the
    intermediate matrices SDDM throughout (breakdown-free).

    The two axes that differentiate the paper's algorithms are exposed as
    parameters:

    - {!sort}: how neighbors are ordered by edge weight before sampling.
      [Exact_sort] is Alg. 1 line 5 (comparison sort, O(d log d));
      [Counting_sort] is Alg. 3 line 5 (approximate counting sort, O(d));
      [No_sort] skips ordering (ablation).
    - {!sampling}: how each neighbor picks its partner among heavier
      neighbors. [Per_neighbor] draws a fresh random number and binary-
      searches the prefix-sum array (Alg. 1 line 9, O(log d) each);
      [Shared_random] derives all targets from one draw (Eq. 6) and locates
      them with the two-pointer merge of Alg. 2 (O(d) total).

    RChol = [Exact_sort] + [Per_neighbor];
    LT-RChol = [Counting_sort] + [Shared_random].

    {b One elimination order} (DESIGN.md §15). The factor is the
    ascending elimination of the input graph: one pass over columns
    [0 .. n-1] on the calling domain. Every column draws its randomness
    from a private stream keyed by [(one draw from ~rng, column index)],
    so a column's output depends only on the inputs the earlier columns
    hand it, in ascending source order, and never on the domain count.

    {b Migration notes.} The switch from one shared random cursor to
    per-column keyed streams changed the factor values once (same
    distribution, same quality — a different realization of the same
    sampler). The switch from an elimination-tree schedule (subtree units
    first, then a separator in etree level order) to the plain ascending
    order changed them once more, for every ordering whose etree the old
    cut split: columns that were separator columns now see their fill in
    ascending source order. Downstream exact-value baselines were
    refreshed with each; determinism guarantees hold as before. *)

type sort =
  | Exact_sort
  | Counting_sort of { buckets : int }
  | No_sort

type sampling = Per_neighbor | Shared_random

exception Breakdown of { column : int; pivot : float }
(** Raised when an elimination pivot is nonpositive or non-finite — the
    input was not a nonsingular SDDM (e.g. a pure Laplacian component with
    no connection to ground, or NaN-contaminated weights). Carries the
    offending position in elimination order and the pivot value, so the
    robustness layer can report exactly where and how the factorization
    broke down. *)

val factorize :
  sort:sort -> sampling:sampling -> rng:Rng.t -> Sddm.Graph.t ->
  d:float array -> Lower.t
(** [factorize ~sort ~sampling ~rng g ~d] factors [laplacian g + diag d]
    in natural vertex order (permute the graph first for reordering).
    Returns the lower-triangular factor with [L L^T ≈ A]. Deterministic
    given [rng]'s state. Raises [Invalid_argument] when [d] does not have
    one entry per vertex of [g]. *)

val expected_clique_weight : d_k:float -> w_i:float -> w_j:float -> float
(** The exact clique edge weight [w_i * w_j / d_k] that the sampled edge is
    an unbiased estimator of. Exposed for the unbiasedness property test. *)

(** {1 Updatable factorizations}

    An {!updatable} freezes the {e pattern} of the factor and every
    sampling decision made while building it, and keeps enough of the
    elimination record (pivots, running excess diagonals, fill-edge
    weights grouped by source and by target column) to re-run only the
    {e arithmetic} of the elimination after an edge-weight or
    excess-diagonal edit. A refactor touches exactly the closure of the
    edited columns under the factor's subdiagonal pattern, consumes no
    randomness, and leaves every other column bit-identical — the basis
    of the session layer's local update rung. *)

type updatable

val factorize_updatable :
  sort:sort -> sampling:sampling -> rng:Rng.t -> Sddm.Graph.t ->
  d:float array -> updatable
(** Like {!factorize} but additionally records the elimination so the
    factor's values can be recomputed in place after edits. The factor
    produced is bit-identical to {!factorize} with the same inputs. The
    updatable builds its own row index of the factor once, and forces the
    factor's diagonal cache; {!refactor} gathers through both. Raises
    [Invalid_argument] as {!factorize} does. *)

val factor : updatable -> Lower.t
(** The live factor. Its values are mutated in place by {!refactor};
    the {!Lower.t} handle itself stays valid across updates, so a
    preconditioner built from it keeps working after a refactor. *)

val find_edge : updatable -> int -> int -> int option
(** Slot of the coalesced edge between two vertices, if present in the
    frozen pattern. Order-insensitive. *)

val edge_weight : updatable -> int -> float
val excess : updatable -> int -> float

val set_edge_weight : updatable -> int -> float -> unit
(** Stage a new weight for an edge slot (zero allowed — the slot stays in
    the pattern, electrically removed). Marks the edge's lower endpoint
    dirty; takes effect at the next {!refactor}. Raises [Invalid_argument]
    on a negative or non-finite weight. *)

val set_excess : updatable -> int -> float -> unit
(** Stage a new excess-diagonal (grounding) value for a vertex. *)

val dirty : updatable -> bool
(** Whether any staged edit awaits a {!refactor}. *)

val refactor : updatable -> int
(** Apply all staged edits by recomputing the values of the affected
    columns in ascending order, and return how many columns were
    recomputed ([0] when nothing was staged). The factor then satisfies
    the elimination recurrence for the edited inputs with the frozen
    structural choices (up to floating-point re-association). This is {e not} what a fresh {!factorize} would
    produce — sorting and sampling decisions depend on the values — but
    it is an equally valid randomized factorization of the edited
    matrix. May raise {!Breakdown} if an edit makes a pivot nonpositive
    (the factor is then partially updated — escalate to a full
    re-factorization).

    The closure re-eliminates sequentially, one column at a time through
    {!Lower.refactor_columns}, at every domain count. Its values are a
    pure function of the committed state, so the result does not depend
    on the default {!Par} pool. *)
