(* Robustness across graph families — the theme of the paper's Table 4.

   PowerRChol is run on one representative of each synthetic family
   (scale-free, community, 2-D/3-D mesh, geometric). The point of the
   exercise: randomized Cholesky preconditioning keeps iteration counts
   flat across wildly different structures, which is where AMG (strong on
   meshes, brittle on scale-free graphs) and tree-based sparsifiers
   (strong on sparse graphs, weak on dense communities) each lose.

   Run with:  dune exec examples/graph_families.exe *)

let () =
  let families =
    [ "youtube"; "amazon"; "copaper"; "ecology"; "g3circuit"; "naca" ]
  in
  Format.printf "%-12s %-14s %9s %9s | %5s %9s %9s@." "case" "analog of"
    "|V|" "nnz" "Ni" "Ttot" "s/Mnnz";
  Format.printf "%s@." (String.make 78 '-');
  List.iter
    (fun id ->
      let case = Powergrid.Suite.find ~scale:0.25 id in
      let problem = case.Powergrid.Suite.build () in
      let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) problem in
      let mnnz = float_of_int (Sddm.Problem.nnz problem) /. 1e6 in
      Format.printf "%-12s %-14s %9d %9d | %5d %9.3f %9.3f%s@."
        case.Powergrid.Suite.id case.Powergrid.Suite.analog_of
        (Sddm.Problem.n problem) (Sddm.Problem.nnz problem)
        r.Powerrchol.Solver.iterations r.Powerrchol.Solver.t_total
        (r.Powerrchol.Solver.t_total /. mnnz)
        (if r.Powerrchol.Solver.converged then "" else "  NOT CONVERGED"))
    families;
  Format.printf
    "@.Iteration counts stay in the same band across families — the \
     robustness claim of Table 4 / Fig. 3.@."
