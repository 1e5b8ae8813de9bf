(** Bigarray-backed index arrays for sparse storage.

    The element width is selected at build time (see [lib/sparse/dune]):
    the default backend stores [int32] (4 bytes per index, enough for any
    matrix with fewer than 2^31 nonzeros), and setting [POWERRCHOL_IDX64]
    in the build environment switches to a native-word backend whose
    indices round-trip exactly up to [max_int]. Both expose plain [int]
    at the API; the narrow build's constructors must guard against
    overflow with {!check_index_capacity}. *)

include module type of struct
  include Idx_backend
end
(** The selected backend:
    - [t] is its Bigarray type, exposed so that the primitives below
      compile to an inline load at every call site;
    - [elt] is the stored element, [int32] or [int];
    - [bits] is the index width of this build, 32 or 64, and
      [bytes_per_index] its storage in bytes;
    - [max_index] is the largest value an element can hold;
    - [get]/[set] are bounds-checked accessors on plain [int];
    - [make n] is a zero-filled array of length [n].

    [unsafe_get_elt a k] reads element [k] without a bounds check, and
    [to_int] widens it; [unsafe_set_elt a k (of_int i)] writes [i] there,
    likewise unchecked. All four are [external]s. The hot sparse kernels
    ({!Csc.spmv_into}, {!Csc.spmv_sym_into} and the triangular solves of
    [Factor.Lower]) read every pointer and row index as
    [to_int (unsafe_get_elt a k)], and the randomized factorization
    writes its factor's indices through [unsafe_set_elt]; both stay
    inline even when the library is compiled with [-opaque], whereas
    [get], [set] and [.%()] are function calls across the module
    boundary. [of_int] does not check {!max_index}: a caller runs
    {!check_index_capacity} first. Cold code keeps [get], [set] and
    [.%()]: they check bounds, and their cost is not per nonzero of a
    solve. *)

val init : int -> (int -> int) -> t
val of_array : int array -> t
val to_array : t -> int array
val copy : t -> t
val blit : src:t -> dst:t -> unit

val sub : t -> int -> int -> t
(** Zero-copy view sharing the underlying storage. *)

val check_index_capacity : what:string -> int -> unit
(** [check_index_capacity ~what n] raises [Invalid_argument] with an
    actionable message when [n] exceeds {!max_index}. *)

(** Indexing sugar: [open Sparse.Idx.Ops] enables [a.%(i)] and
    [a.%(i) <- v]. *)
module Ops : sig
  val ( .%() ) : t -> int -> int
  val ( .%()<- ) : t -> int -> int -> unit
end
