(* Grid strengthening by adjoint sensitivity — the optimization loop a
   power-grid tool runs on top of the solver.

   One primal solve finds the worst-drop node; one adjoint solve (sharing
   the same LT-RChol preconditioner) prices the effect of widening every
   wire at once. We widen the most critical wires by 50% and re-solve,
   repeating a few rounds.

   Run with:  dune exec examples/grid_strengthening.exe *)

let widen problem edges_to_widen factor =
  let g = Sddm.Graph.coalesce problem.Sddm.Problem.graph in
  let module Es = Set.Make (Int) in
  let chosen = Es.of_list edges_to_widen in
  let edges =
    Array.init (Sddm.Graph.n_edges g) (fun e ->
        let u, v, w = Sddm.Graph.edge g e in
        if Es.mem e chosen then (u, v, w *. factor) else (u, v, w))
  in
  let graph = Sddm.Graph.create ~n:(Sddm.Graph.n_vertices g) ~edges in
  Sddm.Problem.of_graph ~name:problem.Sddm.Problem.name ~graph
    ~d:problem.Sddm.Problem.d ~b:problem.Sddm.Problem.b

let () =
  let spec = Powergrid.Generate.default ~nx:80 ~ny:80 ~seed:13 in
  let problem = ref (Powergrid.Generate.generate spec) in
  Format.printf "grid: %s@.@." (Sddm.Problem.describe !problem);
  Format.printf "%-6s %12s %14s %s@." "round" "worst drop" "worst node"
    "top critical wires (u-v, dphi/dw)";
  for round = 0 to 4 do
    let worst, grad = Powerrchol.Sensitivity.worst_node_drop !problem in
    let critical =
      Powerrchol.Sensitivity.most_critical_edges !problem grad 8
    in
    let describe =
      String.concat ", "
        (List.map
           (fun (u, v, _, d) -> Printf.sprintf "%d-%d (%.1e)" u v d)
           (List.filteri (fun i _ -> i < 3) critical))
    in
    Format.printf "%-6d %12.5f %14d %s@." round
      grad.Powerrchol.Sensitivity.objective worst describe;
    (* widen the 8 most critical wires by 50% *)
    let g = Sddm.Graph.coalesce !problem.Sddm.Problem.graph in
    let indices =
      List.filter_map
        (fun (u, v, _, _) ->
          (* recover edge index by scanning (fine at example scale) *)
          let found = ref None in
          for e = 0 to Sddm.Graph.n_edges g - 1 do
            let a, b, _ = Sddm.Graph.edge g e in
            if a = u && b = v then found := Some e
          done;
          !found)
        critical
    in
    problem := widen !problem indices 1.5
  done;
  let final = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) !problem in
  Format.printf "@.final worst drop after strengthening: %.5f V@."
    (Sparse.Vec.norm_inf final.Powerrchol.Solver.x)
