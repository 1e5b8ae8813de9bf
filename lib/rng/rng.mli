(** Deterministic pseudo-random number generation.

    Randomized Cholesky factorization must be reproducible: the same seed has
    to produce the same factor, the same fill pattern, and therefore the same
    PCG iteration counts. This module wraps a xoshiro256++ generator seeded
    through splitmix64, with the sampling primitives the factorizations and
    workload generators need.

    The state is one 40-byte buffer read and written in place, so a draw
    allocates nothing beyond a boxed result: {!reseed_keyed}, {!derive_key},
    {!int}, {!bool} and {!discrete_prefix} allocate nothing, {!float} and
    {!float_open} only the float they return, {!int64} only its [int64].
    The randomized factorization reseeds and draws once per column, so
    this is what keeps its elimination free of per-column allocation. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. Used
    to give each benchmark case its own stream. *)

val keyed : seed:int -> int -> t
(** [keyed ~seed index] builds a generator purely from the pair
    [(seed, index)] — no ambient state is read or advanced, so the stream
    is identical regardless of evaluation order or domain count. Used to
    give each edit of an edit-storm scenario its own reproducible stream. *)

val reseed_keyed : t -> seed:int -> int -> unit
(** [reseed_keyed t ~seed index] re-initializes [t] in place to the exact
    state [keyed ~seed index] would return, without allocating. Hot loops
    (one keyed stream per eliminated column) reuse a single generator this
    way. *)

val derive_key : t -> int
(** [derive_key t] draws once from [t] and returns a nonnegative int suitable
    as the [~seed] of a family of [keyed] streams. Consuming exactly one draw
    keeps existing [~rng] entry points source-compatible while decoupling all
    downstream sampling from draw order — the basis of the factorization's
    bit-identical-at-any-domain-count contract. *)

val copy : t -> t
(** Duplicate the state; the copy evolves independently. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val float_open : t -> float
(** Uniform float in the open interval (0, 1): never returns 0. The
    LT-RChol target array (Eq. 6 of the paper) requires [r > 0]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [lo, hi). Raises
    [Invalid_argument] unless [lo < hi]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound-1]. Raises [Invalid_argument]
    unless [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val discrete : t -> float array -> int
(** [discrete t weights] samples index [i] with probability proportional to
    [weights.(i)]. Zero weights are never selected. Linear time. Raises
    [Invalid_argument] when [weights] is empty, holds a negative or NaN
    weight, or sums to no positive mass. *)

val discrete_prefix : t -> float array -> lo:int -> hi:int -> int
(** [discrete_prefix t pfs ~lo ~hi] samples from a prefix-sum array:
    given ascending [pfs] (exclusive prefix sums are not accepted; [pfs.(i)]
    is the inclusive sum of weights [0..i]), draws index [i] in
    [lo+1 .. hi] with probability proportional to [pfs.(i) - pfs.(i-1)],
    conditioned on the suffix after [lo]. Binary search, O(log n). This is
    the per-neighbor sampling primitive of original RChol (Alg. 1 line 9).
    Raises [Invalid_argument] unless [0 <= lo < hi < Array.length pfs] and
    [pfs.(hi) - pfs.(lo) > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t lambda] draws from Exp(lambda). Used by workload
    generators for heavy-tailed via conductances. Raises
    [Invalid_argument] unless [lambda > 0]. *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto draw, for power-law community graph degrees. Raises
    [Invalid_argument] unless [alpha > 0] and [x_min > 0]. *)
