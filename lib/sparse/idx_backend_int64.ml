(* 64-bit index storage: one native word per index in a GC-opaque
   Bigarray (the [int] kind stores OCaml's native int unboxed, so indices
   up to max_int round-trip exactly). Selected by setting POWERRCHOL_IDX64
   at build time (see lib/sparse/dune); use it for matrices at or beyond
   2^31 nonzeros, where the default 32-bit build refuses to construct.
   [unsafe_get_elt], [unsafe_set_elt], [to_int] and [of_int] are
   primitives for the same reason as in the 32-bit backend; here the
   element already is an [int]. *)

open Bigarray

type t = (int, int_elt, c_layout) Array1.t
type elt = int

external unsafe_get_elt : t -> int -> elt = "%caml_ba_unsafe_ref_1"
external unsafe_set_elt : t -> int -> elt -> unit = "%caml_ba_unsafe_set_1"
external to_int : elt -> int = "%identity"
external of_int : int -> elt = "%identity"

let bits = 64
let bytes_per_index = 8
let max_index = max_int
let length (a : t) = Array1.dim a
let[@inline] get (a : t) i = Array1.get a i
let[@inline] set (a : t) i (v : int) = Array1.set a i v

let make n : t =
  let a = Array1.create int c_layout n in
  Array1.fill a 0;
  a

let fill (a : t) v = Array1.fill a v
