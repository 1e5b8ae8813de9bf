(* Fault-injection matrix for the hardened solve path.

   The contract under test: solving a faulted system must end in a
   structured diagnostic / breakdown ([Robust_rejected] or
   [Robust_exhausted]) or in a recovered solution whose TRUE residual meets
   rtol — never a silent wrong answer. *)

let mesh_problem ?(w = 8) ?(h = 8) () =
  let g = Test_util.mesh_graph w h in
  let n = w * h in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  d.(n - 1) <- 0.5;
  let rng = Rng.create 7 in
  let b = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
  Sddm.Problem.of_graph ~name:"mesh" ~graph:g ~d ~b

let healthy_pair () =
  let p = mesh_problem () in
  (p.Sddm.Problem.a, p.Sddm.Problem.b)

let is_rejected (r : Powerrchol.Solver.robust_result) =
  match r.Powerrchol.Solver.outcome with
  | Powerrchol.Solver.Robust_rejected _ -> true
  | _ -> false

let solved_residual (r : Powerrchol.Solver.robust_result) =
  match r.Powerrchol.Solver.outcome with
  | Powerrchol.Solver.Robust_solved { residual; _ } -> residual
  | _ -> Alcotest.fail "expected Robust_solved"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- PCG status hardening ---- *)

let test_pcg_indefinite_true_iteration () =
  (* [[1 2];[2 1]] is symmetric indefinite: PCG must report a typed
     breakdown carrying the TRUE iteration count, not max_iter (the old
     code set iter := max_iter to force loop exit, lying in the report). *)
  let a = Sparse.Csc.of_dense [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let b = Test_util.vec [| 1.0; 0.0 |] in
  let max_iter = 50 in
  let r =
    Krylov.Pcg.solve ~rtol:1e-12 ~max_iter ~a ~b
      ~precond:(Krylov.Precond.identity 2) ()
  in
  (match r.Krylov.Pcg.status with
   | Krylov.Pcg.Breakdown (Krylov.Pcg.Indefinite { iteration; curvature }) ->
     Alcotest.(check bool) "curvature nonpositive" true (curvature <= 0.0);
     Alcotest.(check bool) "true iteration count" true (iteration < max_iter);
     Alcotest.(check int) "result.iterations agrees" iteration
       r.Krylov.Pcg.iterations
   | s -> Alcotest.failf "expected Indefinite breakdown, got %s"
            (Krylov.Pcg.status_to_string s));
  Alcotest.(check bool) "not converged" false r.Krylov.Pcg.converged

let test_pcg_nan_rhs_breakdown () =
  let p = mesh_problem () in
  let b = Sparse.Vec.copy p.Sddm.Problem.b in
  b.{3} <- Float.nan;
  let r =
    Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b
      ~precond:(Krylov.Precond.identity (Sparse.Vec.length b)) ()
  in
  match r.Krylov.Pcg.status with
  | Krylov.Pcg.Breakdown (Krylov.Pcg.Nonfinite _) -> ()
  | s -> Alcotest.failf "expected Nonfinite breakdown, got %s"
           (Krylov.Pcg.status_to_string s)

let test_pcg_stagnation () =
  (* A rank-deficient preconditioner (a broken factor that annihilates one
     coordinate) locks PCG into a subspace that cannot represent the
     solution: the residual plateaus at a positive floor and the stall
     window must fire well before max_iter. *)
  let p = mesh_problem ~w:8 ~h:8 () in
  let deficient =
    Krylov.Precond.of_apply ~name:"rank-deficient" ~nnz:0 (fun r z ->
        Sparse.Vec.blit ~src:r ~dst:z;
        z.{0} <- 0.0)
  in
  let r =
    Krylov.Pcg.solve ~rtol:1e-6 ~max_iter:5000 ~stall_window:30
      ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b ~precond:deficient ()
  in
  match r.Krylov.Pcg.status with
  | Krylov.Pcg.Stagnated { best_residual; _ } ->
    Alcotest.(check bool) "stalled above rtol" true (best_residual > 1e-6);
    Alcotest.(check bool) "stopped early" true (r.Krylov.Pcg.iterations < 5000)
  | s -> Alcotest.failf "expected Stagnated, got %s (iters %d, rel %g)"
           (Krylov.Pcg.status_to_string s) r.Krylov.Pcg.iterations
           r.Krylov.Pcg.relative_residual

(* ---- diagnostics ---- *)

let test_diagnose_clean () =
  let a, b = healthy_pair () in
  let report = Robust.Diagnose.run ~a ~b in
  Alcotest.(check bool) "ok" true (Robust.Diagnose.ok report);
  Alcotest.(check int) "one component" 1 report.Robust.Diagnose.components

let test_diagnose_issue_counts () =
  let a, b = healthy_pair () in
  let a = Fault.inject_nan ~entry:5 (Fault.inject_nan ~entry:2 a) in
  let report = Robust.Diagnose.run ~a ~b in
  let found =
    List.exists
      (function
        | Robust.Diagnose.Nonfinite_entry { count; _ } -> count = 2
        | _ -> false)
      report.Robust.Diagnose.issues
  in
  Alcotest.(check bool) "two NaN entries counted" true found;
  Alcotest.(check bool) "fatal" true (Robust.Diagnose.has_fatal report)

let test_split_components_matches_dense () =
  let p = Fault.disconnect_island ~island:5 ~grounded:true (mesh_problem ()) in
  let report = Robust.Diagnose.of_problem p in
  Alcotest.(check int) "two components" 2 report.Robust.Diagnose.components;
  let comps = Robust.Diagnose.split_components p in
  Alcotest.(check int) "split into two" 2 (Array.length comps);
  let parts =
    Array.to_list comps
    |> List.map (fun (c : Robust.Diagnose.component) ->
           let r =
             Powerrchol.Solver.run ~rtol:1e-10
               (Powerrchol.Solver.powerrchol ())
               c.problem
           in
           (c, r.Powerrchol.Solver.x))
  in
  let x = Robust.Diagnose.assemble ~n:(Sddm.Problem.n p) parts in
  let expected =
    Test_util.dense_solve
      (Sparse.Csc.to_dense p.Sddm.Problem.a)
      (Test_util.arr p.Sddm.Problem.b)
  in
  Sparse.Vec.iteri
    (fun i xi -> Test_util.check_float ~eps:1e-6 "assembled x" expected.(i) xi)
    x

(* ---- fallback engine ---- *)

let boom_rung name exn = { Robust.Fallback.name; solve = (fun _ -> raise exn) }

let liar_rung =
  {
    Robust.Fallback.name = "liar";
    solve =
      (fun p ->
        (* claims success, returns garbage: the true-residual check must
           catch it *)
        { Robust.Fallback.x = Sparse.Vec.create (Sddm.Problem.n p);
          iterations = 1; note = "converged" });
  }

let good_rung =
  {
    Robust.Fallback.name = "good";
    solve =
      (fun p ->
        let r =
          Powerrchol.Solver.run ~rtol:1e-8 (Powerrchol.Solver.powerrchol ()) p
        in
        { Robust.Fallback.x = r.Powerrchol.Solver.x;
          iterations = r.Powerrchol.Solver.iterations;
          note = Krylov.Pcg.status_to_string r.Powerrchol.Solver.status });
  }

let test_fallback_classifies_failures () =
  let p = mesh_problem () in
  let rungs =
    [
      boom_rung "factor-breakdown"
        (Factor.Rand_chol.Breakdown { column = 3; pivot = -1.0 });
      boom_rung "ichol-breakdown" (Factor.Ichol.Breakdown 2);
      boom_rung "crash" (Failure "oops");
      liar_rung;
      good_rung;
    ]
  in
  let o = Robust.Fallback.run ~rtol:1e-6 ~rungs p in
  Alcotest.(check bool) "succeeded" true (Robust.Fallback.succeeded o);
  Alcotest.(check (option string)) "winner" (Some "good")
    o.Robust.Fallback.winner;
  Alcotest.(check bool) "verified residual" true
    (o.Robust.Fallback.residual <= 1e-6);
  let kinds =
    List.map
      (fun (a : Robust.Fallback.attempt) ->
        ( a.Robust.Fallback.rung,
          match a.Robust.Fallback.failure with
          | Robust.Fallback.Breakdown _ -> "breakdown"
          | Robust.Fallback.Unverified _ -> "unverified"
          | Robust.Fallback.Crashed _ -> "crashed"
          | Robust.Fallback.Timed_out _ -> "timed-out"
          | Robust.Fallback.Skipped _ -> "skipped" ))
      o.Robust.Fallback.attempts
  in
  Alcotest.(check (list (pair string string)))
    "every failure classified"
    [
      ("factor-breakdown", "breakdown");
      ("ichol-breakdown", "breakdown");
      ("crash", "crashed");
      ("liar", "unverified");
    ]
    kinds

let test_fallback_reraises_unknown () =
  let p = mesh_problem () in
  Alcotest.check_raises "unknown exceptions escape" Not_found (fun () ->
      ignore (Robust.Fallback.run ~rungs:[ boom_rung "weird" Not_found ] p))

let test_fallback_exhaustion () =
  let p = mesh_problem () in
  let o = Robust.Fallback.run ~rungs:[ liar_rung ] p in
  Alcotest.(check bool) "failed" false (Robust.Fallback.succeeded o);
  Alcotest.(check (option string)) "no winner" None o.Robust.Fallback.winner;
  match o.Robust.Fallback.attempts with
  | [ { Robust.Fallback.rung = "liar";
        failure = Robust.Fallback.Unverified { residual; _ } } ] ->
    (* x = 0 means the true relative residual is exactly 1 *)
    Test_util.check_float ~eps:1e-12 "unverified residual" 1.0 residual
  | _ -> Alcotest.fail "expected a single Unverified attempt"

(* ---- the full chain: escalation and determinism ---- *)

let test_chain_escalates_to_direct () =
  (* max_iter = 2 starves every PCG-based rung on a 12x12 mesh at rtol 1e-8;
     only [direct] (exact Cholesky preconditioner, one iteration) can win.
     The trace must record each starved rung. *)
  let p = mesh_problem ~w:12 ~h:12 () in
  let r = Powerrchol.Solver.solve_robust ~rtol:1e-8 ~max_iter:2 p in
  (match r.Powerrchol.Solver.outcome with
   | Powerrchol.Solver.Robust_solved { winner; attempts; residual; _ } ->
     Alcotest.(check string) "direct wins" "direct" winner;
     Alcotest.(check bool) "prior rungs recorded" true
       (List.length attempts >= 3);
     Alcotest.(check bool) "verified" true (residual <= 1e-8)
   | _ -> Alcotest.fail "expected Robust_solved via the fallback chain");
  Alcotest.(check bool) "robust_ok" true (Powerrchol.Solver.robust_ok r)

let test_trace_deterministic () =
  let run () =
    let p = mesh_problem ~w:12 ~h:12 () in
    Powerrchol.Solver.robust_trace
      (Powerrchol.Solver.solve_robust ~rtol:1e-8 ~max_iter:2 ~seed:42 p)
  in
  let t1 = run () and t2 = run () in
  Alcotest.(check string) "byte-identical traces" t1 t2;
  Alcotest.(check bool) "trace mentions failures" true (contains t1 "failed")

(* ---- fault matrix: every fault is caught or recovered ---- *)

let solve_matrix_robust_of a b =
  Powerrchol.Solver.solve_matrix_robust ~rtol:1e-6 ~name:"faulted" ~a ~b ()

let test_fault_nan_entry () =
  let a, b = healthy_pair () in
  let r = solve_matrix_robust_of (Fault.inject_nan a) b in
  Alcotest.(check bool) "rejected" true (is_rejected r)

let test_fault_nan_rhs () =
  let a, b = healthy_pair () in
  let r = solve_matrix_robust_of a (Fault.inject_nan_rhs b) in
  Alcotest.(check bool) "rejected" true (is_rejected r)

let test_fault_broken_dominance () =
  let a, b = healthy_pair () in
  let r = solve_matrix_robust_of (Fault.break_dominance ~row:10 a) b in
  Alcotest.(check bool) "rejected" true (is_rejected r)

let test_fault_zero_row () =
  let a, b = healthy_pair () in
  let r = solve_matrix_robust_of (Fault.zero_row ~row:7 a) b in
  Alcotest.(check bool) "rejected" true (is_rejected r)

let test_fault_weight_scale () =
  let a, b = healthy_pair () in
  let r = solve_matrix_robust_of (Fault.corrupt_weight_scale ~row:5 a) b in
  Alcotest.(check bool) "rejected" true (is_rejected r)

let test_fault_none_solves () =
  let a, b = healthy_pair () in
  let r = solve_matrix_robust_of a b in
  Alcotest.(check bool) "healthy input solves" true
    (Powerrchol.Solver.robust_ok r);
  Alcotest.(check bool) "verified residual" true (solved_residual r <= 1e-6)

let test_fault_grounded_island_recovers () =
  let p = Fault.disconnect_island ~island:6 ~grounded:true (mesh_problem ()) in
  let r = Powerrchol.Solver.solve_robust ~rtol:1e-8 p in
  (match r.Powerrchol.Solver.outcome with
   | Powerrchol.Solver.Robust_solved { x; residual; _ } ->
     Alcotest.(check bool) "verified global residual" true (residual <= 1e-8);
     (* cross-check against the dense reference on the full system *)
     let expected =
       Test_util.dense_solve
         (Sparse.Csc.to_dense p.Sddm.Problem.a)
         (Test_util.arr p.Sddm.Problem.b)
     in
     Sparse.Vec.iteri
       (fun i xi ->
         Test_util.check_float ~eps:1e-6 "island solution" expected.(i) xi)
       x
   | _ -> Alcotest.fail "grounded island must be recovered by splitting");
  Alcotest.(check int) "diagnosed 2 components" 2
    r.Powerrchol.Solver.diagnostics.Robust.Diagnose.components

let test_fault_floating_island_rejected () =
  let p =
    Fault.disconnect_island ~island:6 ~grounded:false (mesh_problem ())
  in
  let r = Powerrchol.Solver.solve_robust p in
  match r.Powerrchol.Solver.outcome with
  | Powerrchol.Solver.Robust_rejected { reasons } ->
    Alcotest.(check bool) "names the floating island" true
      (List.exists (fun m -> contains m "ground") reasons)
  | _ -> Alcotest.fail "floating island must be rejected, not solved"

let () =
  Alcotest.run "robust"
    [
      ( "pcg-status",
        [
          Alcotest.test_case "indefinite breakdown, true iteration count"
            `Quick test_pcg_indefinite_true_iteration;
          Alcotest.test_case "nan rhs -> nonfinite breakdown" `Quick
            test_pcg_nan_rhs_breakdown;
          Alcotest.test_case "stagnation detection" `Quick test_pcg_stagnation;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "clean input" `Quick test_diagnose_clean;
          Alcotest.test_case "offender counts" `Quick
            test_diagnose_issue_counts;
          Alcotest.test_case "split_components matches dense solve" `Quick
            test_split_components_matches_dense;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "classifies every failure" `Quick
            test_fallback_classifies_failures;
          Alcotest.test_case "reraises unknown exceptions" `Quick
            test_fallback_reraises_unknown;
          Alcotest.test_case "exhaustion is structured" `Quick
            test_fallback_exhaustion;
        ] );
      ( "chain",
        [
          Alcotest.test_case "escalates to direct" `Quick
            test_chain_escalates_to_direct;
          Alcotest.test_case "trace is deterministic" `Quick
            test_trace_deterministic;
        ] );
      ( "fault-matrix",
        [
          Alcotest.test_case "nan entry" `Quick test_fault_nan_entry;
          Alcotest.test_case "nan rhs" `Quick test_fault_nan_rhs;
          Alcotest.test_case "broken dominance" `Quick
            test_fault_broken_dominance;
          Alcotest.test_case "zero row" `Quick test_fault_zero_row;
          Alcotest.test_case "weight scale corruption" `Quick
            test_fault_weight_scale;
          Alcotest.test_case "healthy input still solves" `Quick
            test_fault_none_solves;
          Alcotest.test_case "grounded island recovers" `Quick
            test_fault_grounded_island_recovers;
          Alcotest.test_case "floating island rejected" `Quick
            test_fault_floating_island_rejected;
        ] );
    ]
