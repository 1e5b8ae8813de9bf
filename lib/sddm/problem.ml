type t = {
  name : string;
  a : Sparse.Csc.t;
  b : Sparse.Vec.t;
  graph : Graph.t;
  d : float array;
}

let of_matrix ~name ~a ~b =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then
    invalid_arg
      (Printf.sprintf "Problem.of_matrix %S: matrix not square (%d x %d)" name
         n_rows n_cols);
  if Sparse.Vec.length b <> n_rows then
    invalid_arg
      (Printf.sprintf
         "Problem.of_matrix %S: rhs length %d does not match matrix \
          dimension %d"
         name (Sparse.Vec.length b) n_rows);
  let graph, d =
    try Graph.of_sddm a
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "Problem.of_matrix %S: %s" name msg)
  in
  { name; a; b; graph; d }

let of_graph ~name ~graph ~d ~b =
  let n = Graph.n_vertices graph in
  if Array.length d <> n then
    invalid_arg
      (Printf.sprintf
         "Problem.of_graph %S: excess-diagonal length %d does not match %d \
          vertices"
         name (Array.length d) n);
  if Sparse.Vec.length b <> n then
    invalid_arg
      (Printf.sprintf
         "Problem.of_graph %S: rhs length %d does not match %d vertices" name
         (Sparse.Vec.length b) n);
  { name; a = Graph.to_sddm graph d; b; graph; d }

let rename p name = { p with name }

let n p = Graph.n_vertices p.graph
let nnz p = Sparse.Csc.nnz p.a

let residual_norm_against p ~b x =
  let r = Sparse.Vec.sub b (Sparse.Csc.spmv p.a x) in
  let bn = Sparse.Vec.norm2 b in
  let rn = Sparse.Vec.norm2 r in
  if bn > 0.0 then rn /. bn else rn

let residual_norm p x = residual_norm_against p ~b:p.b x

let describe p =
  Printf.sprintf "%s: |V|=%d nnz=%d" p.name (n p) (nnz p)
