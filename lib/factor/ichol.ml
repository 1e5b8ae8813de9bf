exception Breakdown of int

(* One factorization attempt at a given diagonal shift.

   Row-linked-list machinery: while factoring column k we must visit every
   earlier column j with L(k,j) <> 0. Each unfinished column j keeps a
   cursor [col_pos.(j)] pointing at its first entry with row >= current k;
   columns are threaded into per-row lists ([row_head] / [col_link]) keyed
   by that entry's row. Columns are stored with rows ascending, so cursors
   only move forward. *)
let attempt ~drop_tol ~alpha a =
  let n = snd (Sparse.Csc.dims a) in
  let a_low = Sparse.Csc.lower a in
  (* per-column drop thresholds: drop_tol * ||A(:,j)||_1 *)
  let tau = Array.make n 0.0 in
  Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () _ j v ->
      tau.(j) <- tau.(j) +. Float.abs v);
  for j = 0 to n - 1 do
    tau.(j) <- drop_tol *. tau.(j)
  done;
  (* dynamic columns of L *)
  let col_rows : int array array = Array.make n [||] in
  let col_vals : float array array = Array.make n [||] in
  let col_len = Array.make n 0 in
  let col_pos = Array.make n 0 in
  let row_head = Array.make n (-1) in
  let col_link = Array.make n (-1) in
  (* sparse accumulator *)
  let x = Array.make n 0.0 in
  let mark = Array.make n (-1) in
  let pattern = Array.make n 0 in
  for k = 0 to n - 1 do
    (* scatter A(k:n, k), with the diagonal shifted *)
    let plen = ref 0 in
    Sparse.Csc.iter_col a_low k (fun i v ->
        let v = if i = k then v *. (1.0 +. alpha) else v in
        if mark.(i) <> k then begin
          mark.(i) <- k;
          x.(i) <- v;
          if i <> k then begin
            pattern.(!plen) <- i;
            incr plen
          end
        end
        else x.(i) <- x.(i) +. v);
    if mark.(k) <> k then begin
      mark.(k) <- k;
      x.(k) <- 0.0
    end;
    (* left-looking updates from all columns j with L(k,j) <> 0 *)
    let j = ref row_head.(k) in
    while !j >= 0 do
      let jc = !j in
      let next = col_link.(jc) in
      let pos = col_pos.(jc) in
      let rows_j = col_rows.(jc) and vals_j = col_vals.(jc) in
      assert (rows_j.(pos) = k);
      let lkj = vals_j.(pos) in
      for q = pos to col_len.(jc) - 1 do
        let i = rows_j.(q) in
        let upd = vals_j.(q) *. lkj in
        if mark.(i) <> k then begin
          mark.(i) <- k;
          x.(i) <- -.upd;
          if i <> k then begin
            pattern.(!plen) <- i;
            incr plen
          end
        end
        else x.(i) <- x.(i) -. upd
      done;
      (* advance column jc's cursor and re-thread it *)
      let pos' = pos + 1 in
      col_pos.(jc) <- pos';
      if pos' < col_len.(jc) then begin
        let r = rows_j.(pos') in
        col_link.(jc) <- row_head.(r);
        row_head.(r) <- jc
      end;
      j := next
    done;
    let d = x.(k) in
    if not (d > 0.0) then raise (Breakdown k);
    let sqrt_d = sqrt d in
    (* drop small entries (in x-space, like MATLAB ict), sort survivors *)
    let kept = ref [] in
    let kept_len = ref 0 in
    for q = 0 to !plen - 1 do
      let i = pattern.(q) in
      if Float.abs x.(i) >= tau.(k) then begin
        kept := i :: !kept;
        incr kept_len
      end
    done;
    let rows_k = Array.make (!kept_len + 1) 0 in
    let vals_k = Array.make (!kept_len + 1) 0.0 in
    rows_k.(0) <- k;
    vals_k.(0) <- sqrt_d;
    let tmp = Array.of_list !kept in
    Array.sort compare tmp;
    Array.iteri
      (fun q i ->
        rows_k.(q + 1) <- i;
        vals_k.(q + 1) <- x.(i) /. sqrt_d)
      tmp;
    col_rows.(k) <- rows_k;
    col_vals.(k) <- vals_k;
    col_len.(k) <- !kept_len + 1;
    col_pos.(k) <- 1;
    if !kept_len > 0 then begin
      let r = rows_k.(1) in
      col_link.(k) <- row_head.(r);
      row_head.(r) <- k
    end
  done;
  (* assemble Lower *)
  let col_ptr = Array.make (n + 1) 0 in
  for jc = 0 to n - 1 do
    col_ptr.(jc + 1) <- col_ptr.(jc) + col_len.(jc)
  done;
  let total = col_ptr.(n) in
  let rows = Array.make (max total 1) 0 in
  let vals = Array.make (max total 1) 0.0 in
  for jc = 0 to n - 1 do
    Array.blit col_rows.(jc) 0 rows col_ptr.(jc) col_len.(jc);
    Array.blit col_vals.(jc) 0 vals col_ptr.(jc) col_len.(jc)
  done;
  Lower.of_arrays ~n ~col_ptr ~rows ~vals

let factorize ?(drop_tol = 1e-4) ?(initial_shift = 1e-3) ?(max_tries = 12) a =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then
    invalid_arg
      (Printf.sprintf "Ichol.factorize: matrix is %dx%d, not square" n_rows
         n_cols);
  Obs.span "ichol" @@ fun () ->
  let rec go alpha tries =
    if tries >= max_tries then
      failwith "Ichol.factorize: breakdown persists after maximum shifts"
    else
      match attempt ~drop_tol ~alpha a with
      | l -> l
      | exception Breakdown _ ->
        Obs.count "shift_retries" 1;
        let alpha' = if alpha = 0.0 then initial_shift else 2.0 *. alpha in
        go alpha' (tries + 1)
  in
  go 0.0 0
