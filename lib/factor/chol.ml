exception Not_positive_definite of int

(* Up-looking Cholesky: for each row k, the pattern of L(k, 0..k-1) comes
   from [Etree.ereach]; values are computed by sparse triangular solve
   against the columns already built. Columns of L receive entries in
   increasing row order, so the Lower invariant (diagonal first) holds. *)
let factorize a =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then
    invalid_arg
      (Printf.sprintf "Chol.factorize: matrix is %dx%d, not square" n_rows
         n_cols);
  let n = n_cols in
  let parent = Etree.etree a in
  (* symbolic pass: column counts *)
  let mark = Array.make n (-1) in
  let stack = Array.make n 0 in
  let counts = Array.make n 1 in
  (* 1 for each diagonal *)
  for k = 0 to n - 1 do
    let top = Etree.ereach a k ~parent ~mark ~stamp:k ~stack in
    for q = top to n - 1 do
      counts.(stack.(q)) <- counts.(stack.(q)) + 1
    done
  done;
  let col_ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    col_ptr.(j + 1) <- col_ptr.(j) + counts.(j)
  done;
  let total = col_ptr.(n) in
  let rows = Array.make total 0 in
  let vals = Array.make total 0.0 in
  (* fill cursor per column *)
  let cursor = Array.init n (fun j -> col_ptr.(j)) in
  (* numeric pass *)
  let x = Array.make n 0.0 in
  Array.fill mark 0 n (-1);
  for k = 0 to n - 1 do
    let top = Etree.ereach a k ~parent ~mark ~stamp:(n + k) ~stack in
    (* scatter A(0..k, k) into x *)
    let d = ref 0.0 in
    Sparse.Csc.iter_col a k (fun i v ->
        if i < k then x.(i) <- v else if i = k then d := v);
    (* solve L(0..k-1, 0..k-1) * y = A(0..k-1, k) over the row pattern *)
    for q = top to n - 1 do
      let j = stack.(q) in
      let pj = col_ptr.(j) in
      let lkj = x.(j) /. vals.(pj) in
      x.(j) <- 0.0;
      for p = pj + 1 to cursor.(j) - 1 do
        x.(rows.(p)) <- x.(rows.(p)) -. (vals.(p) *. lkj)
      done;
      d := !d -. (lkj *. lkj);
      (* append L(k,j) to column j *)
      rows.(cursor.(j)) <- k;
      vals.(cursor.(j)) <- lkj;
      cursor.(j) <- cursor.(j) + 1
    done;
    if !d <= 0.0 then raise (Not_positive_definite k);
    rows.(cursor.(k)) <- k;
    vals.(cursor.(k)) <- sqrt !d;
    cursor.(k) <- cursor.(k) + 1
  done;
  Lower.of_arrays ~n ~col_ptr ~rows ~vals

let solve_factored l b =
  let x = Sparse.Vec.copy b in
  Lower.solve_in_place l x;
  Lower.solve_transpose_in_place l x;
  x

let solve a b = solve_factored (factorize a) b
