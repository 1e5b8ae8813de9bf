(* Compare every solver in the library on one power grid, then sweep the
   PCG tolerance Fig. 2-style with a reused preconditioner.

   Run with:  dune exec examples/solver_comparison.exe *)

let () =
  let case = Powergrid.Suite.find ~scale:0.5 "thupg1" in
  let problem = case.Powergrid.Suite.build () in
  Format.printf "case %s (analog of %s): %s@.@." case.Powergrid.Suite.id
    case.Powergrid.Suite.analog_of
    (Sddm.Problem.describe problem);

  let solvers =
    [
      Powerrchol.Solver.powerrchol ();
      Powerrchol.Solver.rchol ();
      Powerrchol.Solver.lt_rchol ();
      Powerrchol.Solver.fegrass ();
      Powerrchol.Solver.fegrass_ichol ();
      Powerrchol.Solver.amg_pcg ();
      Powerrchol.Solver.direct ();
    ]
  in
  Format.printf "%-15s %8s %8s %8s %8s %5s@." "solver" "Tr" "Tf" "Ti" "Ttot"
    "Ni";
  List.iter
    (fun solver ->
      let r = Powerrchol.Solver.run solver problem in
      Format.printf "%-15s %8.3f %8.3f %8.3f %8.3f %5d%s@."
        r.Powerrchol.Solver.solver r.Powerrchol.Solver.t_reorder
        r.Powerrchol.Solver.t_precond r.Powerrchol.Solver.t_iterate
        r.Powerrchol.Solver.t_total r.Powerrchol.Solver.iterations
        (if r.Powerrchol.Solver.converged then "" else " (no conv)"))
    solvers;

  (* tolerance sweep: the preconditioner is built once and reused *)
  Format.printf "@.tolerance sweep (PowerRChol, preconditioner reused):@.";
  let solver = Powerrchol.Solver.powerrchol () in
  let prepared = Powerrchol.Solver.prepare solver problem in
  let t_prepare =
    prepared.Powerrchol.Solver.t_reorder +. prepared.Powerrchol.Solver.t_precond
  in
  Format.printf "  prepare (reorder + factor): %.3f s@." t_prepare;
  List.iter
    (fun tol ->
      let r = Powerrchol.Solver.solve_prepared ~rtol:tol prepared in
      Format.printf "  rtol %.0e: %3d iterations, %.3f s iterate, %.3f s \
                     total, true residual %.2e@."
        tol r.Powerrchol.Solver.iterations r.Powerrchol.Solver.t_iterate
        (t_prepare +. r.Powerrchol.Solver.t_iterate)
        r.Powerrchol.Solver.residual)
    [ 1e-3; 1e-6; 1e-9; 1e-12 ]
