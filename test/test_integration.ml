(* Cross-module integration: every solver on shared problems, the one-shot
   and prepared solve paths, solution agreement with the direct solver. *)

let grid_problem =
  lazy (Powergrid.Generate.generate (Powergrid.Generate.default ~nx:40 ~ny:40 ~seed:901))

let all_solvers () =
  [
    Powerrchol.Solver.powerrchol ();
    Powerrchol.Solver.rchol ();
    Powerrchol.Solver.lt_rchol ();
    Powerrchol.Solver.lt_rchol ~ordering:Powerrchol.Solver.Natural ();
    Powerrchol.Solver.lt_rchol ~ordering:Powerrchol.Solver.Rcm ();
    Powerrchol.Solver.fegrass ();
    Powerrchol.Solver.fegrass_ichol ();
    Powerrchol.Solver.amg_pcg ();
    Powerrchol.Solver.direct ();
  ]

let solver_cases =
  List.map
    (fun solver ->
      Alcotest.test_case (solver.Powerrchol.Solver.name ^ " on grid") `Quick
        (fun () ->
          let p = Lazy.force grid_problem in
          let r = Powerrchol.Solver.run solver p in
          Alcotest.(check bool)
            (Printf.sprintf "%s converged (Ni=%d)" r.Powerrchol.Solver.solver
               r.Powerrchol.Solver.iterations)
            true r.Powerrchol.Solver.converged;
          Alcotest.(check bool)
            (Printf.sprintf "residual %.2e <= 1e-6ish" r.Powerrchol.Solver.residual)
            true
            (r.Powerrchol.Solver.residual < 5e-6)))
    (all_solvers ())

let test_solutions_agree () =
  let p = Lazy.force grid_problem in
  let reference =
    (Powerrchol.Solver.run (Powerrchol.Solver.direct ()) p).Powerrchol.Solver.x
  in
  let scale = Sparse.Vec.norm_inf reference in
  List.iter
    (fun solver ->
      let r = Powerrchol.Solver.run ~rtol:1e-9 solver p in
      let err = Sparse.Vec.max_abs_diff r.Powerrchol.Solver.x reference in
      Alcotest.(check bool)
        (Printf.sprintf "%s agrees with direct (err %.2e)"
           r.Powerrchol.Solver.solver err)
        true
        (err < 1e-6 *. scale))
    [ Powerrchol.Solver.powerrchol (); Powerrchol.Solver.fegrass_ichol () ]

let test_timing_fields_sane () =
  let p = Lazy.force grid_problem in
  let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  Alcotest.(check bool) "nonnegative times" true
    (r.Powerrchol.Solver.t_reorder >= 0.0
     && r.Powerrchol.Solver.t_precond >= 0.0
     && r.Powerrchol.Solver.t_iterate >= 0.0);
  Alcotest.(check bool) "total = sum of phases" true
    (Float.abs
       (r.Powerrchol.Solver.t_total
        -. (r.Powerrchol.Solver.t_reorder +. r.Powerrchol.Solver.t_precond
            +. r.Powerrchol.Solver.t_iterate))
     < 1e-9);
  Alcotest.(check bool) "factor nnz positive" true
    (r.Powerrchol.Solver.factor_nnz > 0)

let powerrchol = Powerrchol.Solver.powerrchol ()

let test_pipeline_solve () =
  let p = Lazy.force grid_problem in
  let r = Powerrchol.Solver.run ~rtol:1e-8 powerrchol p in
  Alcotest.(check bool) "pipeline converged" true r.Powerrchol.Solver.converged;
  Alcotest.(check bool) "pipeline residual" true
    (r.Powerrchol.Solver.residual < 1e-7);
  (* pp_result does not raise *)
  ignore (Format.asprintf "%a" Powerrchol.Solver.pp_result r)

let test_pipeline_solve_matrix () =
  let p = Lazy.force grid_problem in
  let r =
    Powerrchol.Solver.run powerrchol
      (Sddm.Problem.of_matrix ~name:"matrix" ~a:p.Sddm.Problem.a
         ~b:p.Sddm.Problem.b)
  in
  Alcotest.(check bool) "matrix entry point" true r.Powerrchol.Solver.converged

let test_prepare_reuse () =
  let p = Lazy.force grid_problem in
  let prepared = Powerrchol.Solver.prepare powerrchol p in
  let r1 = Powerrchol.Solver.solve_prepared ~rtol:1e-3 prepared in
  let r2 = Powerrchol.Solver.solve_prepared ~rtol:1e-9 prepared in
  Alcotest.(check bool) "looser tolerance, fewer iterations" true
    (r1.Powerrchol.Solver.iterations < r2.Powerrchol.Solver.iterations);
  Alcotest.(check bool) "tight tolerance met" true
    (r2.Powerrchol.Solver.residual < 1e-8)

let test_run_is_prepare_then_solve () =
  (* run = prepare + solve_prepared with the handle's preparation times
     folded back: same solution bit for bit, full-cost total *)
  let p = Lazy.force grid_problem in
  let r = Powerrchol.Solver.run powerrchol p in
  let prepared = Powerrchol.Solver.prepare powerrchol p in
  let rp = Powerrchol.Solver.solve_prepared prepared in
  Alcotest.(check bool) "x bit-identical" true
    (r.Powerrchol.Solver.x = rp.Powerrchol.Solver.x);
  Alcotest.(check int) "same iterations" rp.Powerrchol.Solver.iterations
    r.Powerrchol.Solver.iterations;
  Alcotest.(check bool) "prepared solve reports marginal cost" true
    (rp.Powerrchol.Solver.t_reorder = 0.0
     && rp.Powerrchol.Solver.t_precond = 0.0
     && rp.Powerrchol.Solver.t_total = rp.Powerrchol.Solver.t_iterate);
  Alcotest.(check bool) "run reports preparation times" true
    (r.Powerrchol.Solver.t_reorder > 0.0 && r.Powerrchol.Solver.t_precond > 0.0);
  Alcotest.(check (float 0.0)) "t_total = t_reorder + t_precond + t_iterate"
    (r.Powerrchol.Solver.t_reorder +. r.Powerrchol.Solver.t_precond
     +. r.Powerrchol.Solver.t_iterate)
    r.Powerrchol.Solver.t_total

let test_determinism_across_runs () =
  let p = Lazy.force grid_problem in
  let r1 = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  let r2 = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  Alcotest.(check int) "same iteration count" r1.Powerrchol.Solver.iterations
    r2.Powerrchol.Solver.iterations;
  Alcotest.(check int) "same factor nnz" r1.Powerrchol.Solver.factor_nnz
    r2.Powerrchol.Solver.factor_nnz

let test_nonconvergence_reported () =
  let p = Lazy.force grid_problem in
  let r = Powerrchol.Solver.run ~max_iter:2 (Powerrchol.Solver.jacobi ()) p in
  Alcotest.(check bool) "jacobi at 2 iters does not converge" false
    r.Powerrchol.Solver.converged;
  Alcotest.(check int) "iterations capped" 2 r.Powerrchol.Solver.iterations

let test_merged_pipeline () =
  (* the Fig. 1 composition: merge + powerrchol, expanded solution close *)
  let p = Lazy.force grid_problem in
  let m = Powergrid.Merge.merge p in
  let r = Powerrchol.Solver.run powerrchol m.Powergrid.Merge.problem in
  Alcotest.(check bool) "merged solve converged" true r.Powerrchol.Solver.converged;
  let expanded = Powergrid.Merge.expand m r.Powerrchol.Solver.x in
  let direct = Factor.Chol.solve p.Sddm.Problem.a p.Sddm.Problem.b in
  let err = Sparse.Vec.max_abs_diff expanded direct in
  Alcotest.(check bool)
    (Printf.sprintf "expanded error %.2e" err)
    true
    (err < 0.05 *. Sparse.Vec.norm_inf direct)

let test_other_case_families () =
  (* one representative of each Table-4 family, small scale *)
  List.iter
    (fun id ->
      let c = Powergrid.Suite.find ~scale:0.02 id in
      let p = c.Powergrid.Suite.build () in
      let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
      Alcotest.(check bool)
        (Printf.sprintf "%s converged (n=%d, Ni=%d)" id (Sddm.Problem.n p)
           r.Powerrchol.Solver.iterations)
        true r.Powerrchol.Solver.converged)
    [ "youtube"; "amazon"; "ecology"; "g3circuit"; "naca" ]

let test_solve_matrix_rejects_non_sddm () =
  let bad = Sparse.Csc.of_dense [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |] in
  Alcotest.(check bool) "rejected" true
    (match
       Sddm.Problem.of_matrix ~name:"bad" ~a:bad
         ~b:(Test_util.vec [| 1.0; 1.0 |])
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_suite_random_rhs () =
  let p0 = Lazy.force grid_problem in
  let p1 = Powergrid.Suite.random_rhs p0 ~seed:1 in
  let p2 = Powergrid.Suite.random_rhs p0 ~seed:1 in
  let p3 = Powergrid.Suite.random_rhs p0 ~seed:2 in
  Alcotest.(check bool) "same seed, same rhs" true
    (p1.Sddm.Problem.b = p2.Sddm.Problem.b);
  Alcotest.(check bool) "different seed differs" true
    (p1.Sddm.Problem.b <> p3.Sddm.Problem.b);
  Test_util.check_float "matrix unchanged" 0.0
    (Sparse.Csc.frobenius_diff p0.Sddm.Problem.a p1.Sddm.Problem.a)

let () =
  Alcotest.run "integration"
    [
      ("solvers", solver_cases);
      ( "consistency",
        [
          Alcotest.test_case "solutions agree" `Slow test_solutions_agree;
          Alcotest.test_case "timing fields" `Quick test_timing_fields_sane;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "nonconvergence reported" `Quick
            test_nonconvergence_reported;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "solve" `Quick test_pipeline_solve;
          Alcotest.test_case "solve_matrix" `Quick test_pipeline_solve_matrix;
          Alcotest.test_case "prepare reuse" `Quick test_prepare_reuse;
          Alcotest.test_case "run is prepare + solve_prepared" `Quick
            test_run_is_prepare_then_solve;
          Alcotest.test_case "merged pipeline" `Quick test_merged_pipeline;
          Alcotest.test_case "solve_matrix rejects non-SDDM" `Quick
            test_solve_matrix_rejects_non_sddm;
          Alcotest.test_case "suite random rhs" `Quick test_suite_random_rhs;
        ] );
      ( "families",
        [ Alcotest.test_case "table-4 analogs" `Slow test_other_case_families ] );
    ]
