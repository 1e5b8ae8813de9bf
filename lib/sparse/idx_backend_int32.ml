(* 32-bit index storage: 4 bytes per index in a GC-opaque Bigarray.
   Selected by default (see lib/sparse/dune); every matrix this build can
   represent has fewer than 2^31 rows, columns, and nonzeros, which the
   constructors in Csc/Lower enforce with an actionable error.

   [unsafe_get_elt], [unsafe_set_elt], [to_int] and [of_int] are
   primitives, not functions: an application of any of them compiles to an
   inline load, store or conversion at the call site in any build profile,
   including one that compiles modules with -opaque (dune's default dev
   profile), where a [let]-bound accessor such as [get] or [set] stays an
   out-of-line call. Composed at the call site, they read an int32 element
   into an [int], or write an [int] as one, without boxing. *)

open Bigarray

type t = (int32, int32_elt, c_layout) Array1.t
type elt = int32

external unsafe_get_elt : t -> int -> elt = "%caml_ba_unsafe_ref_1"
external unsafe_set_elt : t -> int -> elt -> unit = "%caml_ba_unsafe_set_1"
external to_int : elt -> int = "%int32_to_int"
external of_int : int -> elt = "%int32_of_int"

let bits = 32
let bytes_per_index = 4
let max_index = Int32.to_int Int32.max_int
let length (a : t) = Array1.dim a
let[@inline] get (a : t) i = Int32.to_int (Array1.get a i)
let[@inline] set (a : t) i v = Array1.set a i (Int32.of_int v)

let make n : t =
  let a = Array1.create int32 c_layout n in
  Array1.fill a 0l;
  a

let fill (a : t) v = Array1.fill a (Int32.of_int v)
