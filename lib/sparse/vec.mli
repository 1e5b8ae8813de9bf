(** Dense vector kernels used throughout the solvers.

    A vector is a flat [float64] Bigarray: unboxed, GC-opaque (the major
    heap never scans it), and shareable with future C kernels without
    copying. The type is exposed as an alias so consumers can index with
    the standard [x.{i}] sugar; dimension mismatches raise via assertions
    or [Invalid_argument]. None of the kernels allocates unless the name
    says so ([add], [copy], ...). *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val length : t -> int

val create : int -> t
(** [create n] is a zero vector of length [n] (explicitly zero-filled —
    Bigarray allocation does not clear). *)

val make : int -> float -> t
(** [make n v] is a length-[n] vector with every component [v]. *)

(* The element accessors are the Bigarray primitives themselves, not
   wrappers: a cross-module call returning [float] boxes its result on
   every invocation (the solver hot loops would pay two minor words per
   element read), whereas an [external "%caml_ba_..."] compiles to the
   same unboxed access as [x.{i}] at every call site. *)

external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
(** No bounds check; the caller must have validated the index. *)

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
val init : int -> (int -> float) -> t
val of_array : float array -> t
val to_array : t -> float array
val copy : t -> t
val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst]; lengths must match. *)

val sub_view : t -> int -> int -> t
(** Zero-copy slice sharing the underlying storage. *)

val iteri : (int -> float -> unit) -> t -> unit
val dot : t -> t -> float
(** Inner product. Raises [Invalid_argument] when the lengths differ. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val axpy : alpha:float -> x:t -> y:t -> unit
(** [y <- alpha * x + y]. Raises [Invalid_argument] when the lengths
    differ. *)

val scale : t -> float -> unit
(** [x <- alpha * x], in place. *)

val add : t -> t -> t
(** Fresh vector [x + y]. Raises [Invalid_argument] when the lengths
    differ. *)

val sub : t -> t -> t
(** Fresh vector [x - y]. Raises [Invalid_argument] when the lengths
    differ. *)

val xpby : x:t -> beta:float -> y:t -> unit
(** [y <- x + beta * y]; the PCG direction update. Raises
    [Invalid_argument] when the lengths differ. *)

val max_abs_diff : t -> t -> float
(** Componentwise infinity distance between two vectors. Raises
    [Invalid_argument] when the lengths differ. *)

val mean : t -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty vector. *)
