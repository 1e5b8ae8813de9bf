type t = {
  n_rows : int;
  n_cols : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable values : float array;
  mutable len : int;
}

let create ?(capacity = 16) ~n_rows ~n_cols () =
  assert (n_rows >= 0 && n_cols >= 0);
  let capacity = max capacity 1 in
  {
    n_rows;
    n_cols;
    rows = Array.make capacity 0;
    cols = Array.make capacity 0;
    values = Array.make capacity 0.0;
    len = 0;
  }

let n_rows t = t.n_rows
let n_cols t = t.n_cols
let length t = t.len

let grow t =
  let capacity = Array.length t.rows in
  let capacity' = 2 * capacity in
  let extend a zero =
    let a' = Array.make capacity' zero in
    Array.blit a 0 a' 0 capacity;
    a'
  in
  t.rows <- extend t.rows 0;
  t.cols <- extend t.cols 0;
  t.values <- extend t.values 0.0

let add t i j v =
  assert (0 <= i && i < t.n_rows);
  assert (0 <= j && j < t.n_cols);
  if t.len = Array.length t.rows then grow t;
  t.rows.(t.len) <- i;
  t.cols.(t.len) <- j;
  t.values.(t.len) <- v;
  t.len <- t.len + 1

let add_symmetric t i j v =
  if i = j then add t i i v
  else begin
    add t i j v;
    add t j i v
  end

let iter t f =
  for k = 0 to t.len - 1 do
    f t.rows.(k) t.cols.(k) t.values.(k)
  done
