(* Quickstart: build a small SDDM system by hand and solve it with the
   PowerRChol pipeline.

   The system is a 3x3 resistor mesh with one node tied to ground; we pull
   one ampere out of the far corner and ask for the node voltages.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. Describe the conductance network as a weighted graph: nodes are
     circuit nodes, edge weights are conductances (siemens). *)
  let nx = 3 in
  let node x y = (y * nx) + x in
  let edges = ref [] in
  for y = 0 to 2 do
    for x = 0 to 2 do
      if x + 1 < 3 then edges := (node x y, node (x + 1) y, 2.0) :: !edges;
      if y + 1 < 3 then edges := (node x y, node x (y + 1), 2.0) :: !edges
    done
  done;
  let graph = Sddm.Graph.create ~n:9 ~edges:(Array.of_list !edges) in

  (* 2. Excess diagonal = conductance to ground (here: node 0 is grounded
     through 10 S), right-hand side = injected currents. *)
  let d = Array.make 9 0.0 in
  d.(node 0 0) <- 10.0;
  let b = Sparse.Vec.create 9 in
  b.{node 2 2} <- -1.0;

  let problem = Sddm.Problem.of_graph ~name:"quickstart" ~graph ~d ~b in

  (* 3. Solve: Alg. 4 reordering + LT-RChol preconditioner + PCG. *)
  let result =
    Powerrchol.Solver.run ~rtol:1e-10 (Powerrchol.Solver.powerrchol ()) problem
  in
  Format.printf "%a@.@." Powerrchol.Solver.pp_result result;

  Format.printf "node voltages (V):@.";
  for y = 0 to 2 do
    for x = 0 to 2 do
      Format.printf "  %+.4f" result.Powerrchol.Solver.x.{node x y}
    done;
    Format.printf "@."
  done;

  (* 4. Verify against the exact sparse Cholesky solver. *)
  let exact = Factor.Chol.solve problem.Sddm.Problem.a problem.Sddm.Problem.b in
  Format.printf "@.max deviation from direct solve: %.2e@."
    (Sparse.Vec.max_abs_diff result.Powerrchol.Solver.x exact)
