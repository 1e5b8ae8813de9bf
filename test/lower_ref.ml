(* Reference triangular sweeps for the bit-identity test in
   test_factor.ml: a verbatim copy of Factor.Lower's two solves and its
   preconditioner apply as they stood while the factor kept its indices
   in Sparse.Idx Bigarrays and its values in a Sparse.Vec. [of_lower]
   copies a factor into that storage. The native-array kernels must
   reproduce these bit for bit. *)

module Idx = Sparse.Idx
module Vec = Sparse.Vec

type t = { n : int; col_ptr : Idx.t; rows : Idx.t; vals : Vec.t }

let of_lower (l : Factor.Lower.t) =
  let nnz = Factor.Lower.nnz l in
  {
    n = Factor.Lower.dim l;
    col_ptr = Idx.of_array l.Factor.Lower.col_ptr;
    rows = Idx.of_array (Array.sub l.Factor.Lower.rows 0 nnz);
    vals = Vec.of_array (Array.sub l.Factor.Lower.vals 0 nnz);
  }

let[@inline] at a k = Idx.to_int (Idx.unsafe_get_elt a k)

let solve_in_place l (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg "Lower.solve_in_place: vector length does not match factor";
  let col_ptr = l.col_ptr and rows = l.rows in
  for j = 0 to l.n - 1 do
    let lo = at col_ptr j in
    let xj = x.{j} /. Vec.get l.vals lo in
    x.{j} <- xj;
    if xj <> 0.0 then
      for k = lo + 1 to at col_ptr (j + 1) - 1 do
        let i = at rows k in
        Vec.unsafe_set x i
          (Vec.unsafe_get x i -. (Vec.unsafe_get l.vals k *. xj))
      done
  done

let solve_transpose_in_place l (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg
      "Lower.solve_transpose_in_place: vector length does not match factor";
  let col_ptr = l.col_ptr and rows = l.rows in
  for j = l.n - 1 downto 0 do
    let lo = at col_ptr j in
    let acc = ref x.{j} in
    for k = lo + 1 to at col_ptr (j + 1) - 1 do
      acc := !acc -. (Vec.unsafe_get l.vals k *. Vec.unsafe_get x (at rows k))
    done;
    x.{j} <- !acc /. Vec.get l.vals lo
  done

let apply_preconditioner l ~perm ~scratch r z =
  let n = l.n in
  if Array.length perm <> n then
    invalid_arg "Lower.apply_preconditioner: perm length does not match factor";
  if Vec.length scratch < n then
    invalid_arg "Lower.apply_preconditioner: scratch shorter than factor";
  if Vec.length r <> n || Vec.length z <> n then
    invalid_arg
      "Lower.apply_preconditioner: vector lengths do not match factor";
  (* scratch <- P r *)
  for k = 0 to n - 1 do
    Vec.set scratch k (Vec.get r perm.(k))
  done;
  solve_in_place l scratch;
  solve_transpose_in_place l scratch;
  (* z <- P^T scratch *)
  for k = 0 to n - 1 do
    Vec.set z perm.(k) (Vec.get scratch k)
  done
