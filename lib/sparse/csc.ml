open Idx.Ops

type t = {
  n_rows : int;
  n_cols : int;
  col_ptr : Idx.t;
  row_idx : Idx.t;
  values : Vec.t;
}

let dims a = (a.n_rows, a.n_cols)
let nnz a = a.col_ptr.%(a.n_cols)

let validate a =
  let { n_rows; n_cols; col_ptr; row_idx; values } = a in
  if Idx.length col_ptr <> n_cols + 1 then
    invalid_arg "Csc: col_ptr length must be n_cols + 1";
  if col_ptr.%(0) <> 0 then invalid_arg "Csc: col_ptr.(0) must be 0";
  let len = col_ptr.%(n_cols) in
  if Idx.length row_idx < len || Vec.length values < len then
    invalid_arg "Csc: row_idx/values shorter than col_ptr.(n_cols)";
  for j = 0 to n_cols - 1 do
    if col_ptr.%(j) > col_ptr.%(j + 1) then
      invalid_arg "Csc: col_ptr must be monotone";
    for k = col_ptr.%(j) to col_ptr.%(j + 1) - 1 do
      let i = row_idx.%(k) in
      if i < 0 || i >= n_rows then invalid_arg "Csc: row index out of bounds";
      if k > col_ptr.%(j) && row_idx.%(k - 1) >= i then
        invalid_arg "Csc: rows must be strictly ascending within a column"
    done
  done

let of_raw ~n_rows ~n_cols ~col_ptr ~row_idx ~values =
  let a = { n_rows; n_cols; col_ptr; row_idx; values } in
  validate a;
  a

let check_capacity ~what ~n_rows ~n_cols ~len =
  Idx.check_index_capacity ~what (max n_rows n_cols);
  Idx.check_index_capacity ~what len

(* Shared tail of every unsorted builder (triplet compression, the
   streaming MatrixMarket reader, symmetric permutation): sort the rows
   within each column and coalesce duplicates, in place. [col_ptr] arrives
   holding bucket boundaries (prefix sums of the per-column counts) and
   leaves holding the compressed pointers. Keeping this one code path
   shared makes the triplet-built and stream-built matrices bit-for-bit
   identical: duplicate values are summed in the same order everywhere. *)
let compress_bucketed ~n_cols ~col_ptr ~row_idx ~values =
  let scratch_rows = ref [||] and scratch_vals = ref [||] in
  let ensure m =
    if Array.length !scratch_rows < m then begin
      scratch_rows := Array.make m 0;
      scratch_vals := Array.make m 0.0
    end
  in
  let out = ref 0 in
  let col_start = ref 0 in
  for j = 0 to n_cols - 1 do
    let lo = !col_start and hi = col_ptr.%(j + 1) in
    col_start := hi;
    let m = hi - lo in
    (* The write cursor never passes the read window's start, but they can
       coincide, so the column is staged in scratch before rewriting. *)
    col_ptr.%(j) <- !out;
    if m > 0 then begin
      ensure m;
      let sr = !scratch_rows and sv = !scratch_vals in
      for k = 0 to m - 1 do
        sr.(k) <- row_idx.%(lo + k);
        sv.(k) <- Vec.get values (lo + k)
      done;
      let order = Array.init m (fun k -> k) in
      Array.sort (fun a b -> compare sr.(a) sr.(b)) order;
      let k = ref 0 in
      while !k < m do
        let row = sr.(order.(!k)) in
        let acc = ref 0.0 in
        while !k < m && sr.(order.(!k)) = row do
          acc := !acc +. sv.(order.(!k));
          incr k
        done;
        row_idx.%(!out) <- row;
        Vec.set values !out !acc;
        incr out
      done
    end
  done;
  col_ptr.%(n_cols) <- !out;
  !out

let of_bucketed ~n_rows ~n_cols ~col_ptr ~row_idx ~values =
  let len = compress_bucketed ~n_cols ~col_ptr ~row_idx ~values in
  {
    n_rows;
    n_cols;
    col_ptr;
    row_idx = Idx.sub row_idx 0 (max len 1);
    values = Vec.sub_view values 0 (max len 1);
  }

(* Compress COO to CSC: bucket by column, then sort each column's rows and
   sum duplicates via the shared compressor. *)
let of_triplet t =
  let n_rows = Triplet.n_rows t and n_cols = Triplet.n_cols t in
  check_capacity ~what:"Csc.of_triplet" ~n_rows ~n_cols ~len:(Triplet.length t);
  let col_ptr = Idx.make (n_cols + 1) in
  Triplet.iter t (fun _ j _ -> col_ptr.%(j + 1) <- col_ptr.%(j + 1) + 1);
  for j = 1 to n_cols do
    col_ptr.%(j) <- col_ptr.%(j) + col_ptr.%(j - 1)
  done;
  let len = col_ptr.%(n_cols) in
  let row_idx = Idx.make (max len 1) in
  let values = Vec.create (max len 1) in
  let cursor = Idx.copy col_ptr in
  Triplet.iter t (fun i j v ->
      let k = cursor.%(j) in
      row_idx.%(k) <- i;
      Vec.set values k v;
      cursor.%(j) <- k + 1);
  of_bucketed ~n_rows ~n_cols ~col_ptr ~row_idx ~values

let of_dense rows =
  let n_rows = Array.length rows in
  let n_cols = if n_rows = 0 then 0 else Array.length rows.(0) in
  let t = Triplet.create ~n_rows ~n_cols () in
  for i = 0 to n_rows - 1 do
    if Array.length rows.(i) <> n_cols then
      invalid_arg "Csc.of_dense: rows must have equal lengths";
    for j = 0 to n_cols - 1 do
      if rows.(i).(j) <> 0.0 then Triplet.add t i j rows.(i).(j)
    done
  done;
  of_triplet t

let to_dense a =
  let d = Array.make_matrix a.n_rows a.n_cols 0.0 in
  for j = 0 to a.n_cols - 1 do
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      let i = a.row_idx.%(k) in
      d.(i).(j) <- d.(i).(j) +. Vec.get a.values k
    done
  done;
  d

let identity n =
  check_capacity ~what:"Csc.identity" ~n_rows:n ~n_cols:n ~len:n;
  {
    n_rows = n;
    n_cols = n;
    col_ptr = Idx.init (n + 1) (fun i -> i);
    row_idx = Idx.init (max n 1) (fun i -> i);
    values = Vec.make (max n 1) 1.0;
  }

let get a i j =
  if not (0 <= i && i < a.n_rows && 0 <= j && j < a.n_cols) then
    invalid_arg "Csc.get: index out of bounds";
  let lo = a.col_ptr.%(j) and hi = a.col_ptr.%(j + 1) - 1 in
  let rec bisect lo hi =
    if lo > hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let r = a.row_idx.%(mid) in
      if r = i then Vec.get a.values mid
      else if r < i then bisect (mid + 1) hi
      else bisect lo (mid - 1)
  in
  bisect lo hi

(* The per-nonzero index read of the SpMV kernels, built from the
   backend's two primitives: unlike [Idx.get] it stays inline when the
   library is compiled with -opaque. [k] must be in bounds. *)
let[@inline] at a k = Idx.to_int (Idx.unsafe_get_elt a k)

let spmv_into a x y =
  if Vec.length x <> a.n_cols || Vec.length y <> a.n_rows then
    invalid_arg "Csc.spmv_into: vector lengths must match the matrix";
  Vec.fill y 0.0;
  let col_ptr = a.col_ptr and row_idx = a.row_idx and values = a.values in
  for j = 0 to a.n_cols - 1 do
    let xj = Vec.get x j in
    if xj <> 0.0 then
      for k = at col_ptr j to at col_ptr (j + 1) - 1 do
        let i = at row_idx k in
        Vec.unsafe_set y i (Vec.unsafe_get y i +. (Vec.unsafe_get values k *. xj))
      done
  done

let spmv a x =
  let y = Vec.create a.n_rows in
  spmv_into a x y;
  y

let spmv_sym_into a x y =
  if a.n_rows <> a.n_cols then
    invalid_arg "Csc.spmv_sym_into: matrix must be square";
  if Vec.length x <> a.n_cols || Vec.length y <> a.n_rows then
    invalid_arg "Csc.spmv_sym_into: vector lengths must match the matrix";
  let col_ptr = a.col_ptr and row_idx = a.row_idx and values = a.values in
  (* Column i of a symmetric CSC matrix is row i, so gathering over the
     column computes y.(i) in one pass with one write per row, term for
     term in the same ascending-j order as the scatter form, hence the
     same floating-point result. *)
  for i = 0 to a.n_rows - 1 do
    let acc = ref 0.0 in
    for k = at col_ptr i to at col_ptr (i + 1) - 1 do
      acc :=
        !acc +. (Vec.unsafe_get values k *. Vec.unsafe_get x (at row_idx k))
    done;
    Vec.unsafe_set y i !acc
  done

let spmv_t_into a x y =
  if Vec.length x <> a.n_rows || Vec.length y <> a.n_cols then
    invalid_arg "Csc.spmv_t_into: vector lengths must match the matrix";
  for j = 0 to a.n_cols - 1 do
    let acc = ref 0.0 in
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      acc := !acc +. (Vec.get a.values k *. Vec.get x a.row_idx.%(k))
    done;
    Vec.set y j !acc
  done

let spmv_t a x =
  if Vec.length x <> a.n_rows then
    invalid_arg "Csc.spmv_t: vector length must match the matrix";
  let y = Vec.create a.n_cols in
  spmv_t_into a x y;
  y

let transpose a =
  let len = nnz a in
  let col_ptr = Idx.make (a.n_rows + 1) in
  for k = 0 to len - 1 do
    col_ptr.%(a.row_idx.%(k) + 1) <- col_ptr.%(a.row_idx.%(k) + 1) + 1
  done;
  for i = 1 to a.n_rows do
    col_ptr.%(i) <- col_ptr.%(i) + col_ptr.%(i - 1)
  done;
  let row_idx = Idx.make (max len 1) in
  let values = Vec.create (max len 1) in
  let cursor = Idx.copy col_ptr in
  (* Visiting columns in order keeps rows ascending in the transpose. *)
  for j = 0 to a.n_cols - 1 do
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      let i = a.row_idx.%(k) in
      let pos = cursor.%(i) in
      row_idx.%(pos) <- j;
      Vec.set values pos (Vec.get a.values k);
      cursor.%(i) <- pos + 1
    done
  done;
  { n_rows = a.n_cols; n_cols = a.n_rows; col_ptr; row_idx; values }

let symmetrize_check a =
  if a.n_rows <> a.n_cols then false
  else begin
    let at = transpose a in
    let same = ref (nnz a = nnz at) in
    if !same then
      for k = 0 to nnz a - 1 do
        if
          a.row_idx.%(k) <> at.row_idx.%(k)
          || Vec.get a.values k <> Vec.get at.values k
        then same := false
      done;
    if !same then
      for j = 0 to a.n_cols do
        if a.col_ptr.%(j) <> at.col_ptr.%(j) then same := false
      done;
    !same
  end

(* Direct bucketed build (no triplet list): entry (i,j) of the result is
   a(p.(i), p.(j)). Buckets are filled in the same ascending-old-column
   order the triplet-based builder used, and the shared compressor sorts
   and coalesces, so results are bit-identical to the historical path. *)
let permute_sym a p =
  if a.n_rows <> a.n_cols then
    invalid_arg "Csc.permute_sym: matrix must be square";
  if Array.length p <> a.n_cols then
    invalid_arg "Csc.permute_sym: permutation length must match the matrix";
  let n = a.n_cols in
  let len = nnz a in
  let pinv = Perm.inverse p in
  let col_ptr = Idx.make (n + 1) in
  for j = 0 to n - 1 do
    let pj = pinv.(j) in
    col_ptr.%(pj + 1) <- col_ptr.%(pj + 1) + (a.col_ptr.%(j + 1) - a.col_ptr.%(j))
  done;
  for j = 1 to n do
    col_ptr.%(j) <- col_ptr.%(j) + col_ptr.%(j - 1)
  done;
  let row_idx = Idx.make (max len 1) in
  let values = Vec.create (max len 1) in
  let cursor = Idx.copy col_ptr in
  for j = 0 to n - 1 do
    let pj = pinv.(j) in
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      let pos = cursor.%(pj) in
      row_idx.%(pos) <- pinv.(a.row_idx.%(k));
      Vec.set values pos (Vec.get a.values k);
      cursor.%(pj) <- pos + 1
    done
  done;
  of_bucketed ~n_rows:n ~n_cols:n ~col_ptr ~row_idx ~values

(* Two-pass filter: count survivors, then fill. Row order within a column
   is preserved, so the result needs no re-sort. *)
let drop a keep =
  let col_ptr = Idx.make (a.n_cols + 1) in
  for j = 0 to a.n_cols - 1 do
    let c = ref 0 in
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      if keep a.row_idx.%(k) j (Vec.get a.values k) then incr c
    done;
    col_ptr.%(j + 1) <- !c
  done;
  for j = 1 to a.n_cols do
    col_ptr.%(j) <- col_ptr.%(j) + col_ptr.%(j - 1)
  done;
  let len = col_ptr.%(a.n_cols) in
  let row_idx = Idx.make (max len 1) in
  let values = Vec.create (max len 1) in
  let pos = ref 0 in
  for j = 0 to a.n_cols - 1 do
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      let i = a.row_idx.%(k) in
      let v = Vec.get a.values k in
      if keep i j v then begin
        row_idx.%(!pos) <- i;
        Vec.set values !pos v;
        incr pos
      end
    done
  done;
  { n_rows = a.n_rows; n_cols = a.n_cols; col_ptr; row_idx; values }

let lower a = drop a (fun i j _ -> i >= j)
let upper a = drop a (fun i j _ -> i <= j)

let diag a =
  if a.n_rows <> a.n_cols then invalid_arg "Csc.diag: matrix must be square";
  Vec.init a.n_cols (fun j -> get a j j)

let map a f =
  {
    a with
    values = Vec.init (max (nnz a) 1) (fun k -> f (Vec.get a.values k));
  }

let add a b =
  if not (a.n_rows = b.n_rows && a.n_cols = b.n_cols) then
    invalid_arg "Csc.add: dimensions differ";
  let t =
    Triplet.create ~capacity:(max (nnz a + nnz b) 1) ~n_rows:a.n_rows
      ~n_cols:a.n_cols ()
  in
  let push m =
    for j = 0 to m.n_cols - 1 do
      for k = m.col_ptr.%(j) to m.col_ptr.%(j + 1) - 1 do
        Triplet.add t m.row_idx.%(k) j (Vec.get m.values k)
      done
    done
  in
  push a;
  push b;
  of_triplet t

let scale a alpha = map a (fun v -> alpha *. v)

(* Gustavson's row-merging product, column version: column j of a*b is a
   linear combination of columns of a selected by column j of b. *)
let mul a b =
  if a.n_cols <> b.n_rows then invalid_arg "Csc.mul: inner dimensions differ";
  let n_rows = a.n_rows and n_cols = b.n_cols in
  let work = Array.make n_rows 0.0 in
  let marker = Array.make n_rows (-1) in
  let col_ptr = Idx.make (n_cols + 1) in
  let rows_buf = ref (Idx.make (max (nnz a + nnz b) 16)) in
  let vals_buf = ref (Vec.create (Idx.length !rows_buf)) in
  let len = ref 0 in
  let ensure extra =
    if !len + extra > Idx.length !rows_buf then begin
      let cap = max (2 * Idx.length !rows_buf) (!len + extra) in
      let r = Idx.make cap and v = Vec.create cap in
      Idx.blit ~src:!rows_buf ~dst:(Idx.sub r 0 (Idx.length !rows_buf));
      Vec.blit ~src:!vals_buf ~dst:(Vec.sub_view v 0 (Vec.length !vals_buf));
      rows_buf := r;
      vals_buf := v
    end
  in
  for j = 0 to n_cols - 1 do
    col_ptr.%(j) <- !len;
    let head = ref [] in
    let count = ref 0 in
    for kb = b.col_ptr.%(j) to b.col_ptr.%(j + 1) - 1 do
      let k = b.row_idx.%(kb) in
      let bv = Vec.get b.values kb in
      for ka = a.col_ptr.%(k) to a.col_ptr.%(k + 1) - 1 do
        let i = a.row_idx.%(ka) in
        if marker.(i) <> j then begin
          marker.(i) <- j;
          work.(i) <- Vec.get a.values ka *. bv;
          head := i :: !head;
          incr count
        end
        else work.(i) <- work.(i) +. (Vec.get a.values ka *. bv)
      done
    done;
    let rows_j = Array.of_list !head in
    Array.sort compare rows_j;
    ensure !count;
    Array.iter
      (fun i ->
        !rows_buf.%(!len) <- i;
        Vec.set !vals_buf !len work.(i);
        incr len)
      rows_j
  done;
  col_ptr.%(n_cols) <- !len;
  {
    n_rows;
    n_cols;
    col_ptr;
    row_idx = Idx.sub !rows_buf 0 (max !len 1);
    values = Vec.sub_view !vals_buf 0 (max !len 1);
  }

let iter_col a j f =
  if not (0 <= j && j < a.n_cols) then
    invalid_arg "Csc.iter_col: column out of bounds";
  for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
    f a.row_idx.%(k) (Vec.get a.values k)
  done

let fold_nonzeros a ~init ~f =
  let acc = ref init in
  for j = 0 to a.n_cols - 1 do
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      acc := f !acc a.row_idx.%(k) j (Vec.get a.values k)
    done
  done;
  !acc

let frobenius_diff a b =
  if dims a <> dims b then invalid_arg "Csc.frobenius_diff: dimensions differ";
  let d = add a (scale b (-1.0)) in
  sqrt (fold_nonzeros d ~init:0.0 ~f:(fun acc _ _ v -> acc +. (v *. v)))

let one_norm a =
  let best = ref 0.0 in
  for j = 0 to a.n_cols - 1 do
    let s = ref 0.0 in
    for k = a.col_ptr.%(j) to a.col_ptr.%(j + 1) - 1 do
      s := !s +. Float.abs (Vec.get a.values k)
    done;
    if !s > !best then best := !s
  done;
  !best

let bytes a =
  let idx = Idx.length a.col_ptr + Idx.length a.row_idx in
  (idx * Idx.bytes_per_index) + (8 * Vec.length a.values)
