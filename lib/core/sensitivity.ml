type gradient = {
  d_edges : float array;
  d_pads : float array;
  objective : float;
}

(* phi = c^T x with A x = b. Adjoint: A^T lambda = c (A symmetric).
   dA/dw_uv = (e_u - e_v)(e_u - e_v)^T, so
   dphi/dw_uv = -lambda^T (dA/dw) x = -(lambda_u - lambda_v)(x_u - x_v).
   dA/dd_u = e_u e_u^T, so dphi/dd_u = -lambda_u x_u.
   [x] is the primal solution; the adjoint solve reuses the primal's
   preparation, since A is symmetric. *)
let gradient_at ?rtol prepared p ~x ~c =
  let lambda = (Solver.solve_prepared ?rtol ~b:c prepared).Solver.x in
  let g = Sddm.Graph.coalesce p.Sddm.Problem.graph in
  let m = Sddm.Graph.n_edges g in
  let d_edges = Array.make m 0.0 in
  for e = 0 to m - 1 do
    let u, v, _ = Sddm.Graph.edge g e in
    d_edges.(e) <- -.((x.{u} -. x.{v}) *. (lambda.{u} -. lambda.{v}))
  done;
  let n = Sddm.Problem.n p in
  let d_pads = Array.init n (fun i -> -.(x.{i} *. lambda.{i})) in
  { d_edges; d_pads; objective = Sparse.Vec.dot c x }

let primal ?rtol ?seed p =
  let prepared = Solver.powerrchol_prepare ?seed p in
  (prepared, (Solver.solve_prepared ?rtol prepared).Solver.x)

let of_objective ?rtol ?seed p ~c =
  let n = Sddm.Problem.n p in
  if Sparse.Vec.length c <> n then
    invalid_arg
      (Printf.sprintf
         "Sensitivity.of_objective: objective length %d, system dimension %d"
         (Sparse.Vec.length c) n);
  let prepared, x = primal ?rtol ?seed p in
  gradient_at ?rtol prepared p ~x ~c

let worst_node_drop ?rtol ?seed p =
  let prepared, x = primal ?rtol ?seed p in
  let worst = ref 0 in
  Sparse.Vec.iteri (fun i v -> if v > x.{!worst} then worst := i) x;
  let c = Sparse.Vec.create (Sddm.Problem.n p) in
  c.{!worst} <- 1.0;
  (!worst, gradient_at ?rtol prepared p ~x ~c)

let most_critical_edges p gradient k =
  let g = Sddm.Graph.coalesce p.Sddm.Problem.graph in
  let m = Sddm.Graph.n_edges g in
  let order = Array.init m (fun e -> e) in
  Array.sort
    (fun a b -> compare gradient.d_edges.(a) gradient.d_edges.(b))
    order;
  let take = min k m in
  List.init take (fun i ->
      let e = order.(i) in
      let u, v, w = Sddm.Graph.edge g e in
      (u, v, w, gradient.d_edges.(e)))
