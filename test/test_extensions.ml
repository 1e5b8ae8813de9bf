(* Tests for the extension layer: adjoint sensitivity and incremental (ECO)
   re-solves. *)

(* ---- adjoint sensitivity ---- *)

let fd_check ~p ~node ~grad ~edge =
  let g = Sddm.Graph.coalesce p.Sddm.Problem.graph in
  let u, v, w = Sddm.Graph.edge g edge in
  ignore (u, v);
  let eps = 1e-6 *. w in
  let edges =
    Array.init (Sddm.Graph.n_edges g) (fun i ->
        let a, b, w0 = Sddm.Graph.edge g i in
        if i = edge then (a, b, w0 +. eps) else (a, b, w0))
  in
  let g2 = Sddm.Graph.create ~n:(Sddm.Graph.n_vertices g) ~edges in
  let p2 =
    Sddm.Problem.of_graph ~name:"fd" ~graph:g2 ~d:p.Sddm.Problem.d
      ~b:p.Sddm.Problem.b
  in
  let x2 = Factor.Chol.solve p2.Sddm.Problem.a p2.Sddm.Problem.b in
  let fd = (x2.{node} -. grad.Powerrchol.Sensitivity.objective) /. eps in
  (grad.Powerrchol.Sensitivity.d_edges.(edge), fd)

let test_gradient_matches_finite_difference () =
  let p =
    Powergrid.Generate.generate (Powergrid.Generate.default ~nx:10 ~ny:10 ~seed:1011)
  in
  let node, grad = Powerrchol.Sensitivity.worst_node_drop ~rtol:1e-12 p in
  List.iter
    (fun edge ->
      let adj, fd = fd_check ~p ~node ~grad ~edge in
      let scale = Float.max (Float.abs fd) 1e-9 in
      Alcotest.(check bool)
        (Printf.sprintf "edge %d: adjoint %.3e vs fd %.3e" edge adj fd)
        true
        (Float.abs (adj -. fd) < 1e-3 *. scale +. 1e-10))
    [ 0; 7; 33; 77 ]

let test_gradient_signs () =
  (* widening any wire can only lower (or not change) the worst drop;
     the pad sensitivities are likewise nonpositive *)
  let p =
    Powergrid.Generate.generate (Powergrid.Generate.default ~nx:12 ~ny:12 ~seed:1013)
  in
  let _, grad = Powerrchol.Sensitivity.worst_node_drop ~rtol:1e-10 p in
  (* x >= 0 and lambda >= 0 hold for M-matrices with nonnegative loads,
     so d_pads = -x lambda <= 0 *)
  Array.iter
    (fun d -> Alcotest.(check bool) "pad sensitivity <= 0" true (d <= 1e-12))
    grad.Powerrchol.Sensitivity.d_pads

let test_critical_edges_sorted () =
  let p =
    Powergrid.Generate.generate (Powergrid.Generate.default ~nx:12 ~ny:12 ~seed:1017)
  in
  let _, grad = Powerrchol.Sensitivity.worst_node_drop p in
  let critical = Powerrchol.Sensitivity.most_critical_edges p grad 10 in
  Alcotest.(check int) "ten edges" 10 (List.length critical);
  let rec monotone = function
    | (_, _, _, d1) :: ((_, _, _, d2) :: _ as rest) ->
      Alcotest.(check bool) "ascending derivative" true (d1 <= d2);
      monotone rest
    | _ -> ()
  in
  monotone critical

let test_objective_linear_form () =
  (* gradient of sum of drops = adjoint with c = ones *)
  let p = Test_util.random_problem ~seed:1019 ~n:60 ~m:150 in
  let n = Sddm.Problem.n p in
  let grad =
    Powerrchol.Sensitivity.of_objective ~rtol:1e-12 p ~c:(Sparse.Vec.make n 1.0)
  in
  let x = Factor.Chol.solve p.Sddm.Problem.a p.Sddm.Problem.b in
  let total = ref 0.0 in
  Sparse.Vec.iteri (fun _ v -> total := !total +. v) x;
  let total = !total in
  Alcotest.(check bool) "objective is sum of solution" true
    (Float.abs (grad.Powerrchol.Sensitivity.objective -. total)
     < 1e-8 *. (1.0 +. Float.abs total))

(* ---- incremental (ECO) re-solve ---- *)

let test_eco_preconditioner_reuse () =
  (* change a handful of wire conductances by 20% and re-solve with the
     stale preconditioner: PCG must still converge quickly *)
  let p =
    Powergrid.Generate.generate (Powergrid.Generate.default ~nx:40 ~ny:40 ~seed:1021)
  in
  let prepared =
    Powerrchol.Solver.prepare (Powerrchol.Solver.powerrchol ()) p
  in
  let baseline = Powerrchol.Solver.solve_prepared prepared in
  (* ECO: perturb 10 edges *)
  let g = Sddm.Graph.coalesce p.Sddm.Problem.graph in
  let rng = Rng.create 1023 in
  let module Es = Set.Make (Int) in
  let chosen = ref Es.empty in
  for _ = 1 to 10 do
    chosen := Es.add (Rng.int rng (Sddm.Graph.n_edges g)) !chosen
  done;
  let edges =
    Array.init (Sddm.Graph.n_edges g) (fun e ->
        let u, v, w = Sddm.Graph.edge g e in
        if Es.mem e !chosen then (u, v, w *. 1.2) else (u, v, w))
  in
  let g2 = Sddm.Graph.create ~n:(Sddm.Graph.n_vertices g) ~edges in
  let p2 =
    Sddm.Problem.of_graph ~name:"eco" ~graph:g2 ~d:p.Sddm.Problem.d
      ~b:p.Sddm.Problem.b
  in
  (* the stale preconditioner against the edited matrix *)
  let eco =
    Krylov.Pcg.solve ~a:p2.Sddm.Problem.a ~b:p2.Sddm.Problem.b
      ~precond:prepared.Powerrchol.Solver.precond ()
  in
  Alcotest.(check bool) "eco re-solve converged" true eco.Krylov.Pcg.converged;
  Alcotest.(check bool)
    (Printf.sprintf "stale preconditioner still cheap (%d vs %d baseline)"
       eco.Krylov.Pcg.iterations baseline.Powerrchol.Solver.iterations)
    true
    (eco.Krylov.Pcg.iterations
     <= (2 * baseline.Powerrchol.Solver.iterations) + 10);
  (* and the answer is right *)
  let direct = Factor.Chol.solve p2.Sddm.Problem.a p2.Sddm.Problem.b in
  Alcotest.(check bool) "eco solution correct" true
    (Sparse.Vec.max_abs_diff eco.Krylov.Pcg.x direct
     < 1e-4 *. Sparse.Vec.norm_inf direct)

let () =
  Alcotest.run "extensions"
    [
      ( "sensitivity",
        [
          Alcotest.test_case "matches finite differences" `Quick
            test_gradient_matches_finite_difference;
          Alcotest.test_case "signs" `Quick test_gradient_signs;
          Alcotest.test_case "critical edges sorted" `Quick
            test_critical_edges_sorted;
          Alcotest.test_case "linear objective" `Quick test_objective_linear_form;
        ] );
      ( "eco",
        [
          Alcotest.test_case "preconditioner reuse" `Quick
            test_eco_preconditioner_reuse;
        ] );
    ]
