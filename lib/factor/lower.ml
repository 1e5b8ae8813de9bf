module Vec = Sparse.Vec

type t = {
  n : int;
  col_ptr : int array;
  rows : int array;
  vals : float array;
  mutable diag_cache : float array option;
  (* column buffer for [refactor_columns], kept on the factor so the
     steady-state ECO loop (edit, refactor, solve, repeat) allocates
     nothing per refactor call *)
  mutable refactor_buf : float array;
}

let of_arrays ~n ~col_ptr ~rows ~vals =
  if Array.length col_ptr <> n + 1 then invalid_arg "Lower: bad col_ptr";
  if col_ptr.(0) <> 0 then invalid_arg "Lower: col_ptr.(0) <> 0";
  let len = col_ptr.(n) in
  if Array.length rows < len || Array.length vals < len then
    invalid_arg "Lower: rows/vals too short";
  (* col_ptr.(0) = 0 and [lo < hi <= len] in every column keep every
     unchecked read of the solves inside rows and vals, and every row
     index they read inside [0, n) *)
  for j = 0 to n - 1 do
    let lo = col_ptr.(j) and hi = col_ptr.(j + 1) in
    if lo >= hi then invalid_arg "Lower: empty column (missing diagonal)";
    if hi > len then invalid_arg "Lower: col_ptr passes its last entry";
    if rows.(lo) <> j then invalid_arg "Lower: first entry must be diagonal";
    if not (vals.(lo) > 0.0) then invalid_arg "Lower: nonpositive diagonal";
    for k = lo + 1 to hi - 1 do
      let i = rows.(k) in
      if i <= j || i >= n then
        invalid_arg "Lower: subdiagonal row out of range"
    done
  done;
  { n; col_ptr; rows; vals; diag_cache = None; refactor_buf = [||] }

let nnz l = l.col_ptr.(l.n)
let dim l = l.n

let diag l =
  match l.diag_cache with
  | Some d -> d
  | None ->
    let d = Array.make l.n 0.0 in
    for j = 0 to l.n - 1 do
      d.(j) <- l.vals.(l.col_ptr.(j))
    done;
    l.diag_cache <- Some d;
    d

let to_csc l =
  let t =
    Sparse.Triplet.create ~capacity:(max (nnz l) 1) ~n_rows:l.n ~n_cols:l.n ()
  in
  for j = 0 to l.n - 1 do
    for k = l.col_ptr.(j) to l.col_ptr.(j + 1) - 1 do
      Sparse.Triplet.add t l.rows.(k) j l.vals.(k)
    done
  done;
  Sparse.Csc.of_triplet t

let of_csc a =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then invalid_arg "Lower.of_csc: not square";
  let lower = Sparse.Csc.lower a in
  of_arrays ~n:n_cols
    ~col_ptr:(Sparse.Idx.to_array lower.Sparse.Csc.col_ptr)
    ~rows:(Sparse.Idx.to_array lower.Sparse.Csc.row_idx)
    ~vals:(Vec.to_array lower.Sparse.Csc.values)

(* The two sweeps read L without bounds checks: [of_arrays] validated
   every pointer and row index, and [x] has length n. *)
let solve_in_place l (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg "Lower.solve_in_place: vector length does not match factor";
  let col_ptr = l.col_ptr and rows = l.rows and vals = l.vals in
  for j = 0 to l.n - 1 do
    let lo = Array.unsafe_get col_ptr j in
    let xj = x.{j} /. Array.unsafe_get vals lo in
    x.{j} <- xj;
    if xj <> 0.0 then
      for k = lo + 1 to Array.unsafe_get col_ptr (j + 1) - 1 do
        let i = Array.unsafe_get rows k in
        Vec.unsafe_set x i
          (Vec.unsafe_get x i -. (Array.unsafe_get vals k *. xj))
      done
  done

let solve_transpose_in_place l (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg
      "Lower.solve_transpose_in_place: vector length does not match factor";
  let col_ptr = l.col_ptr and rows = l.rows and vals = l.vals in
  for j = l.n - 1 downto 0 do
    let lo = Array.unsafe_get col_ptr j in
    let acc = ref x.{j} in
    for k = lo + 1 to Array.unsafe_get col_ptr (j + 1) - 1 do
      let i = Array.unsafe_get rows k in
      acc := !acc -. (Array.unsafe_get vals k *. Vec.unsafe_get x i)
    done;
    x.{j} <- !acc /. Array.unsafe_get vals lo
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
      max_len := max !max_len (l.col_ptr.(j + 1) - l.col_ptr.(j)))
    cols;
  if Array.length l.refactor_buf < !max_len then
    l.refactor_buf <- Array.make (max (2 * !max_len) 16) 0.0;
  let buf = l.refactor_buf and diag = l.diag_cache in
  Array.iter
    (fun j ->
      emit j buf;
      if not (buf.(0) > 0.0) then
        invalid_arg
          (Printf.sprintf
             "Lower.refactor_columns: nonpositive diagonal %g in column %d"
             buf.(0) j);
      let lo = l.col_ptr.(j) in
      Array.blit buf 0 l.vals lo (l.col_ptr.(j + 1) - lo);
      match diag with Some d -> d.(j) <- buf.(0) | None -> ())
    cols

let multiply l =
  let csc = to_csc l in
  Sparse.Csc.mul csc (Sparse.Csc.transpose csc)
