(* IR-drop sign-off on a synthetic two-layer power grid — the workload the
   paper's introduction motivates.

   We generate a 150x150 grid (~24k nodes), solve it with PowerRChol,
   print the sign-off report, and then show the PowerRush-style
   small-resistor merging preprocessing shrinking the problem while
   keeping the answer.

   Run with:  dune exec examples/ir_drop_analysis.exe *)

let () =
  let spec = Powergrid.Generate.default ~nx:150 ~ny:150 ~seed:2024 in
  let problem = Powergrid.Generate.generate spec in
  Format.printf "grid: %s@." (Sddm.Problem.describe problem);

  (* --- full solve --- *)
  let result = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) problem in
  Format.printf "@.%a@.@." Powerrchol.Solver.pp_result result;

  (* the drop formulation's solution vector is the IR drop per node *)
  let report =
    Powergrid.Ir_drop.analyze ~budget:0.05 ~top:5 result.Powerrchol.Solver.x
  in
  Format.printf "%a@." Powergrid.Ir_drop.pp report;

  (* --- merged solve (PowerRush preprocessing) --- *)
  let merged = Powergrid.Merge.merge problem in
  let mp = merged.Powergrid.Merge.problem in
  Format.printf
    "@.after merging %d via/strap resistors: %d -> %d unknowns@."
    merged.Powergrid.Merge.n_merged_edges (Sddm.Problem.n problem)
    (Sddm.Problem.n mp);
  let merged_result = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) mp in
  Format.printf "%a@.@." Powerrchol.Solver.pp_result merged_result;
  let expanded = Powergrid.Merge.expand merged merged_result.Powerrchol.Solver.x in
  Format.printf "max drop, full grid   : %.4f V@."
    (Sparse.Vec.norm_inf result.Powerrchol.Solver.x);
  Format.printf "max drop, merged grid : %.4f V@."
    (Sparse.Vec.norm_inf expanded);
  Format.printf "worst-case discrepancy: %.5f V@."
    (Sparse.Vec.max_abs_diff result.Powerrchol.Solver.x expanded)
