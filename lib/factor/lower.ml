open Sparse.Idx.Ops
module Idx = Sparse.Idx
module Vec = Sparse.Vec

type t = {
  n : int;
  col_ptr : Idx.t;
  rows : Idx.t;
  vals : Vec.t;
  mutable diag_cache : Vec.t option;
  (* column buffer for [refactor_columns], kept on the factor so the
     steady-state ECO loop (edit, refactor, solve, repeat) allocates
     nothing per refactor call *)
  mutable refactor_buf : Vec.t;
}

(* the refactor buffer of a factor that has not been refactored yet *)
let no_refactor_buf = Vec.create 0

(* The per-nonzero index read of the validation and the two solves below,
   built from the index backend's two primitives: unlike [Idx.get] and
   [.%()] it stays inline when the library is compiled with -opaque. [k]
   must be in bounds. *)
let[@inline] at a k = Idx.to_int (Idx.unsafe_get_elt a k)

let of_raw ~n ~col_ptr ~rows ~vals =
  if Idx.length col_ptr <> n + 1 then invalid_arg "Lower: bad col_ptr";
  if col_ptr.%(0) <> 0 then invalid_arg "Lower: col_ptr.(0) <> 0";
  let len = col_ptr.%(n) in
  if Idx.length rows < len || Vec.length vals < len then
    invalid_arg "Lower: rows/vals too short";
  (* col_ptr.(0) = 0 and [lo < hi <= len] in every column keep each read
     below inside rows and vals *)
  for j = 0 to n - 1 do
    let lo = at col_ptr j and hi = at col_ptr (j + 1) in
    if lo >= hi then invalid_arg "Lower: empty column (missing diagonal)";
    if hi > len then invalid_arg "Lower: col_ptr passes its last entry";
    if at rows lo <> j then invalid_arg "Lower: first entry must be diagonal";
    if not (Vec.unsafe_get vals lo > 0.0) then
      invalid_arg "Lower: nonpositive diagonal";
    for k = lo + 1 to hi - 1 do
      let i = at rows k in
      if i <= j || i >= n then
        invalid_arg "Lower: subdiagonal row out of range"
    done
  done;
  {
    n;
    col_ptr;
    rows;
    vals;
    diag_cache = None;
    refactor_buf = no_refactor_buf;
  }

let of_arrays ~n ~col_ptr ~rows ~vals =
  of_raw ~n ~col_ptr:(Idx.of_array col_ptr) ~rows:(Idx.of_array rows)
    ~vals:(Vec.of_array vals)

let nnz l = l.col_ptr.%(l.n)
let dim l = l.n

let diag l =
  match l.diag_cache with
  | Some d -> d
  | None ->
    let d = Vec.init l.n (fun j -> Vec.get l.vals l.col_ptr.%(j)) in
    l.diag_cache <- Some d;
    d

let to_csc l =
  let t =
    Sparse.Triplet.create ~capacity:(max (nnz l) 1) ~n_rows:l.n ~n_cols:l.n ()
  in
  for j = 0 to l.n - 1 do
    for k = l.col_ptr.%(j) to l.col_ptr.%(j + 1) - 1 do
      Sparse.Triplet.add t l.rows.%(k) j (Vec.get l.vals k)
    done
  done;
  Sparse.Csc.of_triplet t

let of_csc a =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then invalid_arg "Lower.of_csc: not square";
  let lower = Sparse.Csc.lower a in
  of_raw ~n:n_cols ~col_ptr:lower.Sparse.Csc.col_ptr
    ~rows:lower.Sparse.Csc.row_idx ~vals:lower.Sparse.Csc.values

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

(* Each column's new values are emitted into the cached buffer, grown
   geometrically (the ECO loop refactors the same closure sizes over and
   over, so after the first call it is hot), then committed: the column
   storage is overwritten and the cached diagonal kept coherent. *)
let refactor_columns l ~cols ~emit =
  let max_len = ref 0 in
  Array.iter
    (fun j ->
      if j < 0 || j >= l.n then
        invalid_arg "Lower.refactor_columns: column out of range";
      max_len := max !max_len (l.col_ptr.%(j + 1) - l.col_ptr.%(j)))
    cols;
  if Vec.length l.refactor_buf < !max_len then
    l.refactor_buf <- Vec.create (max (2 * !max_len) 16);
  let buf = l.refactor_buf and diag = l.diag_cache in
  Array.iter
    (fun j ->
      emit j buf;
      if not (Vec.get buf 0 > 0.0) then
        invalid_arg
          (Printf.sprintf
             "Lower.refactor_columns: nonpositive diagonal %g in column %d"
             (Vec.get buf 0) j);
      let lo = l.col_ptr.%(j) in
      for k = lo to l.col_ptr.%(j + 1) - 1 do
        Vec.set l.vals k (Vec.get buf (k - lo))
      done;
      match diag with Some d -> Vec.set d j (Vec.get buf 0) | None -> ())
    cols

let multiply l =
  let csc = to_csc l in
  Sparse.Csc.mul csc (Sparse.Csc.transpose csc)
