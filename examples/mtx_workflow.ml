(* MatrixMarket workflow: exchange problems with other tools via .mtx
   files — the format the SuiteSparse collection (the paper's Table 4
   source) distributes.

   We export a generated SDDM system (symmetric .mtx + rhs vector), read
   it back as an external tool would, and solve. To run against a real
   SuiteSparse matrix instead, download its .mtx and use
   `pgsolve solve --mtx path/to/matrix.mtx`.

   Run with:  dune exec examples/mtx_workflow.exe *)

let () =
  let case = Powergrid.Suite.find ~scale:0.2 "ecology2" in
  let problem = case.Powergrid.Suite.build () in
  let dir = Filename.temp_file "powerrchol_mtx" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let matrix_path = Filename.concat dir "problem.mtx" in
  let rhs_path = Filename.concat dir "problem_b.mtx" in

  (* export *)
  Sparse.Matrix_market.write ~symmetric:true matrix_path problem.Sddm.Problem.a;
  Sparse.Matrix_market.write_vector rhs_path problem.Sddm.Problem.b;
  Format.printf "exported %s (%d x %d, %d nnz) and %s@." matrix_path
    (fst (Sparse.Csc.dims problem.Sddm.Problem.a))
    (snd (Sparse.Csc.dims problem.Sddm.Problem.a))
    (Sparse.Csc.nnz problem.Sddm.Problem.a)
    rhs_path;

  (* import as a third party would *)
  let a = Sparse.Matrix_market.read matrix_path in
  let b = Sparse.Matrix_market.read_vector rhs_path in
  Sys.remove matrix_path;
  Sys.remove rhs_path;
  Sys.rmdir dir;

  let result =
    Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ())
      (Sddm.Problem.of_matrix ~name:"from-mtx" ~a ~b)
  in
  Format.printf "@.%a@.@." Powerrchol.Solver.pp_result result;

  (* confirm the round trip changed nothing *)
  let original = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) problem in
  Format.printf "round-trip solution deviation: %.2e@."
    (Sparse.Vec.max_abs_diff result.Powerrchol.Solver.x
       original.Powerrchol.Solver.x)
