open Bigarray

type t = (float, float64_elt, c_layout) Array1.t

let length (x : t) = Array1.dim x

let create n : t =
  (* Array1.create leaves the buffer uninitialized, unlike Array.make. *)
  let x = Array1.create float64 c_layout n in
  Array1.fill x 0.0;
  x

let make n v : t =
  let x = Array1.create float64 c_layout n in
  Array1.fill x v;
  x

external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let init n f : t =
  let x = Array1.create float64 c_layout n in
  for i = 0 to n - 1 do
    x.{i} <- f i
  done;
  x

let of_array (src : float array) : t =
  init (Array.length src) (Array.get src)

let to_array (x : t) = Array.init (length x) (Array1.get x)

let copy (x : t) : t =
  let y = Array1.create float64 c_layout (length x) in
  Array1.blit x y;
  y

let fill (x : t) v = Array1.fill x v

let blit ~(src : t) ~(dst : t) =
  if length src <> length dst then invalid_arg "Vec.blit: length mismatch";
  Array1.blit src dst

let sub_view (x : t) ofs len : t = Array1.sub x ofs len

let iteri f (x : t) =
  for i = 0 to length x - 1 do
    f i x.{i}
  done

(* Formats its message only when called, so the length checks in the PCG
   kernels cost one comparison when the lengths agree. *)
let length_mismatch fn (x : t) (y : t) =
  invalid_arg
    (Printf.sprintf "Vec.%s: lengths %d and %d differ" fn (length x)
       (length y))

let dot (x : t) (y : t) =
  if length x <> length y then length_mismatch "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to length x - 1 do
    acc := !acc +. (x.{i} *. y.{i})
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf (x : t) =
  let acc = ref 0.0 in
  for i = 0 to length x - 1 do
    let a = Float.abs x.{i} in
    if a > !acc then acc := a
  done;
  !acc

let axpy ~alpha ~(x : t) ~(y : t) =
  if length x <> length y then length_mismatch "axpy" x y;
  for i = 0 to length x - 1 do
    y.{i} <- y.{i} +. (alpha *. x.{i})
  done

let scale (x : t) alpha =
  for i = 0 to length x - 1 do
    x.{i} <- x.{i} *. alpha
  done

let add (x : t) (y : t) : t =
  if length x <> length y then length_mismatch "add" x y;
  init (length x) (fun i -> x.{i} +. y.{i})

let sub (x : t) (y : t) : t =
  if length x <> length y then length_mismatch "sub" x y;
  init (length x) (fun i -> x.{i} -. y.{i})

let xpby ~(x : t) ~beta ~(y : t) =
  if length x <> length y then length_mismatch "xpby" x y;
  for i = 0 to length x - 1 do
    y.{i} <- x.{i} +. (beta *. y.{i})
  done

let max_abs_diff (x : t) (y : t) =
  if length x <> length y then length_mismatch "max_abs_diff" x y;
  let acc = ref 0.0 in
  for i = 0 to length x - 1 do
    let d = Float.abs (x.{i} -. y.{i}) in
    if d > !acc then acc := d
  done;
  !acc

let mean (x : t) =
  let n = length x in
  if n = 0 then invalid_arg "Vec.mean: empty vector";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. x.{i}
  done;
  !acc /. float_of_int n
