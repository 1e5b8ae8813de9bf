include Idx_backend

let init n f =
  let a = make n in
  for i = 0 to n - 1 do
    set a i (f i)
  done;
  a

let of_array src = init (Array.length src) (fun i -> src.(i))
let to_array a = Array.init (length a) (get a)

let copy a =
  let b = make (length a) in
  Bigarray.Array1.blit a b;
  b

let blit ~src ~dst =
  if length src <> length dst then invalid_arg "Idx.blit: length mismatch";
  Bigarray.Array1.blit src dst

let sub (a : t) ofs len : t = Bigarray.Array1.sub a ofs len

let check_index_capacity ~what n =
  if n > max_index then
    invalid_arg
      (Printf.sprintf
         "%s: %d exceeds the %d-bit index capacity of this build (rebuild \
          with POWERRCHOL_IDX64=1 for 64-bit indices)"
         what n bits)

module Ops = struct
  let ( .%() ) = get
  let ( .%()<- ) = set
end
