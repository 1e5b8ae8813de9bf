module Csc = Sparse.Csc
module Vec = Sparse.Vec

let small_system () =
  let a = Csc.of_dense [| [| 4.0; -1.0 |]; [| -1.0; 3.0 |] |] in
  let b = Test_util.vec [| 1.0; 2.0 |] in
  (a, b)

let test_cg_identity_precond () =
  let a, b = small_system () in
  let res = Krylov.Pcg.solve ~a ~b ~precond:(Krylov.Precond.identity 2) () in
  Alcotest.(check bool) "converged" true res.Krylov.Pcg.converged;
  let x_ref = Test_util.dense_solve (Csc.to_dense a) (Test_util.arr b) in
  Alcotest.(check bool) "solution" true
    (Vec.max_abs_diff res.Krylov.Pcg.x (Test_util.vec x_ref) < 1e-5)

let test_cg_exact_in_n_iterations () =
  let p = Test_util.random_problem ~seed:501 ~n:20 ~m:50 in
  let res =
    Krylov.Pcg.solve ~rtol:1e-12 ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Krylov.Precond.identity 20) ()
  in
  (* CG reaches machine precision in at most n iterations (exact arithmetic
     argument; allow slack for rounding) *)
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d <= 25" res.Krylov.Pcg.iterations)
    true
    (res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations <= 25)

let test_jacobi_faster_than_identity_when_scaled () =
  (* badly scaled diagonal: Jacobi fixes it *)
  let a =
    Csc.of_dense
      [|
        [| 1000.0; -1.0; 0.0 |];
        [| -1.0; 1.0; -0.1 |];
        [| 0.0; -0.1; 0.02 |];
      |]
  in
  let b = Test_util.vec [| 1.0; 1.0; 1.0 |] in
  let plain =
    Krylov.Pcg.solve ~max_iter:200 ~a ~b ~precond:(Krylov.Precond.identity 3) ()
  in
  let jac =
    Krylov.Pcg.solve ~max_iter:200 ~a ~b ~precond:(Krylov.Precond.jacobi a) ()
  in
  Alcotest.(check bool) "jacobi converged" true jac.Krylov.Pcg.converged;
  Alcotest.(check bool)
    (Printf.sprintf "jacobi %d <= identity %d iters" jac.Krylov.Pcg.iterations
       plain.Krylov.Pcg.iterations)
    true
    (jac.Krylov.Pcg.iterations <= plain.Krylov.Pcg.iterations)

let test_zero_rhs () =
  let a, _ = small_system () in
  let res =
    Krylov.Pcg.solve ~a ~b:(Vec.create 2) ~precond:(Krylov.Precond.identity 2) ()
  in
  Alcotest.(check bool) "trivially converged" true res.Krylov.Pcg.converged;
  Alcotest.(check int) "no iterations" 0 res.Krylov.Pcg.iterations;
  Test_util.check_vec ~eps:0.0 "zero solution" [| 0.0; 0.0 |]
    res.Krylov.Pcg.x

let test_x0_warm_start () =
  let p = Test_util.random_problem ~seed:503 ~n:30 ~m:80 in
  let a = p.Sddm.Problem.a and b = p.Sddm.Problem.b in
  let x_ref = Test_util.dense_solve (Csc.to_dense a) (Test_util.arr b) in
  let res =
    Krylov.Pcg.solve ~x0:(Test_util.vec x_ref) ~a ~b
      ~precond:(Krylov.Precond.identity 30) ()
  in
  Alcotest.(check bool) "warm start converges immediately" true
    (res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations = 0)

let test_max_iter_respected () =
  let p = Test_util.random_problem ~seed:507 ~n:200 ~m:400 in
  let res =
    Krylov.Pcg.solve ~rtol:1e-14 ~max_iter:3 ~a:p.Sddm.Problem.a
      ~b:p.Sddm.Problem.b ~precond:(Krylov.Precond.identity 200) ()
  in
  Alcotest.(check bool) "did not converge" false res.Krylov.Pcg.converged;
  Alcotest.(check int) "stopped at max_iter" 3 res.Krylov.Pcg.iterations

let test_history_tracks_iterations () =
  let p = Test_util.random_problem ~seed:509 ~n:40 ~m:100 in
  let res =
    Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Krylov.Precond.identity 40) ()
  in
  Alcotest.(check int) "history length" res.Krylov.Pcg.iterations
    (Array.length res.Krylov.Pcg.history);
  if res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations > 0 then
    Alcotest.(check bool) "last history entry below rtol" true
      (res.Krylov.Pcg.history.(res.Krylov.Pcg.iterations - 1) <= 1e-6)

let test_solve_operator_matches_matrix () =
  let p = Test_util.random_problem ~seed:511 ~n:25 ~m:60 in
  let a = p.Sddm.Problem.a and b = p.Sddm.Problem.b in
  let r1 = Krylov.Pcg.solve ~a ~b ~precond:(Krylov.Precond.identity 25) () in
  let r2 =
    Krylov.Pcg.solve_operator_into
      ~workspace:(Krylov.Pcg.Workspace.create 25) ~x:(Vec.create 25)
      ~apply_a:(fun x y -> Csc.spmv_into a x y)
      ~b ~precond:(Krylov.Precond.identity 25) ()
  in
  Alcotest.(check int) "same iterations" r1.Krylov.Pcg.iterations
    r2.Krylov.Pcg.iterations;
  Alcotest.(check bool) "same solution" true
    (Vec.max_abs_diff r1.Krylov.Pcg.x r2.Krylov.Pcg.x < 1e-12)

let test_factor_precond_one_iteration () =
  let p = Test_util.random_problem ~seed:513 ~n:50 ~m:120 in
  let a = p.Sddm.Problem.a in
  let l = Factor.Chol.factorize a in
  let pc = Krylov.Precond.of_factor ~perm:(Sparse.Perm.identity 50) l in
  let res = Krylov.Pcg.solve ~a ~b:p.Sddm.Problem.b ~precond:pc () in
  Alcotest.(check bool) "exact preconditioner: 1 iteration" true
    (res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations <= 2)

let test_true_residual_matches () =
  let p = Test_util.random_problem ~seed:517 ~n:60 ~m:150 in
  let res =
    Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Krylov.Precond.jacobi p.Sddm.Problem.a) ()
  in
  let true_rel = Sddm.Problem.residual_norm p res.Krylov.Pcg.x in
  Alcotest.(check bool)
    (Printf.sprintf "recurrence %.2e ~ true %.2e"
       res.Krylov.Pcg.relative_residual true_rel)
    true
    (Float.abs (true_rel -. res.Krylov.Pcg.relative_residual)
     < 1e-8 +. (0.5 *. true_rel))

(* ---- additive Schwarz ---- *)

let test_schwarz_partition_covers () =
  let g, _ = Test_util.random_sddm ~seed:551 ~n:137 ~m:400 in
  let partition = Krylov.Schwarz.blocks ~block_size:20 g in
  let seen = Array.make 137 0 in
  Array.iter
    (fun block -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) block)
    partition;
  Array.iteri
    (fun v c ->
      Alcotest.(check int) (Printf.sprintf "vertex %d exactly once" v) 1 c)
    seen

let test_schwarz_preconditions () =
  let p = Test_util.random_problem ~seed:553 ~n:600 ~m:1800 in
  let pc = Krylov.Schwarz.preconditioner ~block_size:64 ~overlap:1 p in
  let r =
    Krylov.Pcg.solve ~max_iter:2000 ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:pc ()
  in
  Alcotest.(check bool) "converges" true r.Krylov.Pcg.converged

let test_schwarz_overlap_helps () =
  let p = Test_util.random_problem ~seed:557 ~n:800 ~m:2400 in
  let iters overlap =
    let pc = Krylov.Schwarz.preconditioner ~block_size:64 ~overlap p in
    (Krylov.Pcg.solve ~max_iter:3000 ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
       ~precond:pc ())
      .Krylov.Pcg.iterations
  in
  let no_overlap = iters 0 and with_overlap = iters 2 in
  Alcotest.(check bool)
    (Printf.sprintf "overlap 2 (%d) <= overlap 0 (%d)" with_overlap no_overlap)
    true
    (with_overlap <= no_overlap)

let test_schwarz_single_block_is_direct () =
  let p = Test_util.random_problem ~seed:561 ~n:80 ~m:200 in
  let pc = Krylov.Schwarz.preconditioner ~block_size:80 ~overlap:0 p in
  let r = Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b ~precond:pc () in
  Alcotest.(check bool) "one block = exact solve" true
    (r.Krylov.Pcg.converged && r.Krylov.Pcg.iterations <= 2)

let test_schwarz_concurrent_applies () =
  (* Two domains applying one preconditioner at once each get the
     sequential answer, bit for bit. *)
  let n = 3600 in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  let p =
    Sddm.Problem.of_graph ~name:"mesh" ~graph:(Test_util.mesh_graph 60 60) ~d
      ~b:(Vec.create n)
  in
  let pc = Krylov.Schwarz.preconditioner ~block_size:256 ~overlap:1 p in
  let rs = Array.init 8 (fun k -> Vec.init n (fun i -> sin (float (i + k)))) in
  let apply r =
    let z = Vec.create n in
    pc.Krylov.Precond.apply r z;
    z
  in
  let seq = Array.map apply rs in
  let par = Array.make 8 (Vec.create 0) in
  let width = Par.effective_domains () in
  Fun.protect
    ~finally:(fun () -> Par.set_default_domains width)
    (fun () ->
      Par.set_default_domains 2;
      Par.parallel_for ~lo:0 ~hi:8 (fun lo hi ->
          for _ = 1 to 10 do
            for k = lo to hi - 1 do
              par.(k) <- apply rs.(k)
            done
          done));
  Array.iteri
    (fun k z ->
      Alcotest.(check bool)
        (Printf.sprintf "rhs %d bit-identical" k)
        true (z = par.(k)))
    seq

(* ---- condition estimation ---- *)

let test_condition_known_spectrum () =
  (* diagonal matrix with spectrum [1, 10]: unpreconditioned CG must
     estimate kappa = 10 *)
  let n = 60 in
  let t = Sparse.Triplet.create ~n_rows:n ~n_cols:n () in
  for i = 0 to n - 1 do
    Sparse.Triplet.add t i i
      (1.0 +. (9.0 *. float_of_int i /. float_of_int (n - 1)))
  done;
  let a = Sparse.Csc.of_triplet t in
  let rng = Rng.create 5 in
  let b = Vec.init n (fun _ -> Rng.float rng +. 0.1) in
  let r =
    Krylov.Pcg.solve ~rtol:1e-14 ~a ~b ~precond:(Krylov.Precond.identity n) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "kappa %.3f ~ 10" r.Krylov.Pcg.condition_estimate)
    true
    (Float.abs (r.Krylov.Pcg.condition_estimate -. 10.0) < 0.5)

let test_condition_better_preconditioner_smaller_kappa () =
  let p = Test_util.random_problem ~seed:543 ~n:300 ~m:900 in
  let kappa pc =
    (Krylov.Pcg.solve ~rtol:1e-12 ~max_iter:3000 ~a:p.Sddm.Problem.a
       ~b:p.Sddm.Problem.b ~precond:pc ())
      .Krylov.Pcg.condition_estimate
  in
  let k_jacobi = kappa (Krylov.Precond.jacobi p.Sddm.Problem.a) in
  let l = Factor.Chol.factorize p.Sddm.Problem.a in
  let k_exact =
    kappa (Krylov.Precond.of_factor ~perm:(Sparse.Perm.identity 300) l)
  in
  Alcotest.(check bool)
    (Printf.sprintf "exact factor kappa %.2f << jacobi %.2f" k_exact k_jacobi)
    true
    (k_exact < 1.5 && k_exact < k_jacobi)

let prop_pcg_solves_random_sddm =
  QCheck.Test.make ~name:"pcg solves random SDDM systems" ~count:60
    QCheck.(triple (int_bound 10000) (int_range 3 40) (int_bound 100))
    (fun (seed, n, m) ->
      let p = Test_util.random_problem ~seed ~n ~m:(m + 1) in
      let res =
        Krylov.Pcg.solve ~max_iter:2000 ~a:p.Sddm.Problem.a
          ~b:p.Sddm.Problem.b
          ~precond:(Krylov.Precond.jacobi p.Sddm.Problem.a)
          ()
      in
      res.Krylov.Pcg.converged
      && Sddm.Problem.residual_norm p res.Krylov.Pcg.x < 1e-5)

(* PCG with its update as three vector passes: two [Vec.axpy]s, then
   [Vec.norm2] of the residual. [Pcg.solve] fuses them into one loop that
   must keep every bit of the solution and of the residual history. *)
let three_pass_pcg ~rtol ~max_iter a b (precond : Krylov.Precond.t) =
  let n = Vec.length b in
  let x = Vec.create n and r = Vec.copy b and z = Vec.create n in
  let p = Vec.create n and q = Vec.create n and scratch = Vec.create n in
  let b_norm = Vec.norm2 b in
  precond.apply ~scratch r z;
  Vec.blit ~src:z ~dst:p;
  let rho = ref (Vec.dot r z) and rel = ref (Vec.norm2 r /. b_norm) in
  let history = ref [] in
  while !rel > rtol && List.length !history < max_iter do
    Csc.spmv_sym_into a p q;
    let alpha = !rho /. Vec.dot p q in
    Vec.axpy ~alpha ~x:p ~y:x;
    Vec.axpy ~alpha:(-.alpha) ~x:q ~y:r;
    rel := Vec.norm2 r /. b_norm;
    history := !rel :: !history;
    if !rel > rtol then begin
      precond.apply ~scratch r z;
      let rho' = Vec.dot r z in
      Vec.xpby ~x:z ~beta:(rho' /. !rho) ~y:p;
      rho := rho'
    end
  done;
  (x, Array.of_list (List.rev !history))

let prop_fused_update_keeps_bits =
  QCheck.Test.make ~name:"fused PCG update = three-pass reference, bit for bit"
    ~count:40
    QCheck.(triple (int_bound 10000) (int_range 3 200) (int_bound 600))
    (fun (seed, n, m) ->
      let p = Test_util.random_problem ~seed ~n ~m:(m + 1) in
      let a = p.Sddm.Problem.a and b = p.Sddm.Problem.b in
      let l =
        Factor.Lt_rchol.factorize ~rng:(Rng.create seed) p.Sddm.Problem.graph
          ~d:p.Sddm.Problem.d
      in
      let bits v = Array.map Int64.bits_of_float v in
      List.for_all
        (fun precond ->
          let rtol = 1e-10 and max_iter = 150 in
          let res = Krylov.Pcg.solve ~rtol ~max_iter ~a ~b ~precond () in
          let x, history = three_pass_pcg ~rtol ~max_iter a b precond in
          bits (Test_util.arr res.Krylov.Pcg.x) = bits (Test_util.arr x)
          && bits res.Krylov.Pcg.history = bits history)
        [
          Krylov.Precond.jacobi a;
          Krylov.Precond.of_factor ~perm:(Sparse.Perm.identity n) l;
        ])

let () =
  Alcotest.run "krylov"
    [
      ( "pcg",
        [
          Alcotest.test_case "identity preconditioner" `Quick
            test_cg_identity_precond;
          Alcotest.test_case "finite termination" `Quick
            test_cg_exact_in_n_iterations;
          Alcotest.test_case "jacobi helps scaling" `Quick
            test_jacobi_faster_than_identity_when_scaled;
          Alcotest.test_case "zero rhs" `Quick test_zero_rhs;
          Alcotest.test_case "warm start" `Quick test_x0_warm_start;
          Alcotest.test_case "max_iter respected" `Quick test_max_iter_respected;
          Alcotest.test_case "history" `Quick test_history_tracks_iterations;
          Alcotest.test_case "operator variant" `Quick
            test_solve_operator_matches_matrix;
          Alcotest.test_case "exact factor = 1 iteration" `Quick
            test_factor_precond_one_iteration;
          Alcotest.test_case "true vs recurrence residual" `Quick
            test_true_residual_matches;
        ] );
      ( "schwarz",
        [
          Alcotest.test_case "partition covers" `Quick
            test_schwarz_partition_covers;
          Alcotest.test_case "preconditions" `Quick test_schwarz_preconditions;
          Alcotest.test_case "overlap helps" `Quick test_schwarz_overlap_helps;
          Alcotest.test_case "single block direct" `Quick
            test_schwarz_single_block_is_direct;
          Alcotest.test_case "concurrent applies" `Quick
            test_schwarz_concurrent_applies;
        ] );
      ( "condition estimate",
        [
          Alcotest.test_case "known spectrum" `Quick
            test_condition_known_spectrum;
          Alcotest.test_case "preconditioner ranking" `Quick
            test_condition_better_preconditioner_smaller_kappa;
        ] );
      ( "property",
        Test_util.qcheck
          [ prop_pcg_solves_random_sddm; prop_fused_update_keeps_bits ] );
    ]
