module Csc = Sparse.Csc

let mesh_problem ~side ~seed =
  let g = Test_util.mesh_graph side side in
  let n = side * side in
  let rng = Rng.create seed in
  let d = Array.make n 0.0 in
  for _ = 1 to max 1 (n / 50) do
    d.(Rng.int rng n) <- 2.0
  done;
  let b = Sparse.Vec.init n (fun _ -> Rng.float rng) in
  Sddm.Problem.of_graph ~name:"mesh" ~graph:g ~d ~b

let test_hierarchy_shrinks () =
  let p = mesh_problem ~side:40 ~seed:601 in
  let h = Amg.build p.Sddm.Problem.a in
  let sizes = Amg.grid_sizes h in
  Alcotest.(check bool) "at least two levels" true (Amg.n_levels h >= 2);
  for k = 0 to Array.length sizes - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "level %d coarser (%d > %d)" k sizes.(k) sizes.(k + 1))
      true
      (sizes.(k) > sizes.(k + 1))
  done

let test_operator_complexity_bounded () =
  let p = mesh_problem ~side:40 ~seed:603 in
  let h = Amg.build p.Sddm.Problem.a in
  let cx = Amg.operator_complexity h in
  Alcotest.(check bool)
    (Printf.sprintf "complexity %.2f in (1, 4)" cx)
    true
    (cx > 1.0 && cx < 4.0)

let test_v_cycle_reduces_error () =
  (* the l2 residual of one plain-aggregation cycle can transiently grow;
     the A-norm of the error is the quantity a convergent stationary
     iteration must contract *)
  let p = mesh_problem ~side:30 ~seed:605 in
  let a = p.Sddm.Problem.a and b = p.Sddm.Problem.b in
  let h = Amg.build a in
  let x_exact = Factor.Chol.solve a b in
  let a_norm2 e = Sparse.Vec.dot e (Csc.spmv a e) in
  let e0 = a_norm2 x_exact in
  let x = Sparse.Vec.create (Sparse.Vec.length b) in
  Amg.v_cycle h b x;
  let e1 = a_norm2 (Sparse.Vec.sub x_exact x) in
  Alcotest.(check bool)
    (Printf.sprintf "one cycle contracts A-norm error (%.3e -> %.3e)" e0 e1)
    true (e1 < e0)

let test_standalone_solve () =
  let p = mesh_problem ~side:30 ~seed:607 in
  let x, cycles, converged = Amg.solve (Amg.build p.Sddm.Problem.a) p.Sddm.Problem.b in
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d cycles" cycles)
    true converged;
  Alcotest.(check bool) "residual small" true
    (Sddm.Problem.residual_norm p x < 1e-5)

let test_amg_pcg () =
  let p = mesh_problem ~side:50 ~seed:609 in
  let h = Amg.build p.Sddm.Problem.a in
  let res =
    Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Amg.preconditioner h) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "pcg+amg converged in %d" res.Krylov.Pcg.iterations)
    true
    (res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations < 80)

let test_v_cycle_allocation_bound () =
  (* After a warm-up apply has built the pooled level buffers, a V-cycle
     allocates a constant handful of words (the pool hand-off), however
     many nonzeros it sweeps: the smoothers, the level transfers (plain
     and smoothed aggregation) and the coarse solve work in place. *)
  List.iter
    (fun (side, smooth_prolongation) ->
      let p = mesh_problem ~side ~seed:621 in
      let h = Amg.build ?smooth_prolongation p.Sddm.Problem.a in
      let pc = Amg.preconditioner h in
      let n = Sddm.Problem.n p in
      let r = Sparse.Vec.init n (fun i -> float_of_int (i mod 17) -. 8.0) in
      let z = Sparse.Vec.create n in
      pc.Krylov.Precond.apply r z;
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        pc.Krylov.Precond.apply r z
      done;
      let per_apply = (Gc.minor_words () -. w0) /. 10.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f minor words per apply (n=%d, nnz=%d%s)"
           per_apply n (Csc.nnz p.Sddm.Problem.a)
           (if smooth_prolongation = None then "" else ", smoothed"))
        true (per_apply <= 64.0))
    [ (30, None); (60, None); (30, Some 0.66); (60, Some 0.66) ]

let test_small_matrix_direct () =
  (* below coarse_size: hierarchy has one level = direct solve *)
  let p = Test_util.random_problem ~seed:611 ~n:30 ~m:70 in
  let h = Amg.build p.Sddm.Problem.a in
  Alcotest.(check int) "single level" 1 (Amg.n_levels h);
  let x = Sparse.Vec.create 30 in
  Amg.v_cycle h p.Sddm.Problem.b x;
  Alcotest.(check bool) "direct solve exact" true
    (Sddm.Problem.residual_norm p x < 1e-10)

let test_theta_extremes () =
  let p = mesh_problem ~side:25 ~seed:613 in
  (* theta = 1.0: nothing is strong, aggregation degenerates but must not
     crash or loop *)
  let h = Amg.build ~theta:1.1 p.Sddm.Problem.a in
  let res =
    Krylov.Pcg.solve ~max_iter:1000 ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Amg.preconditioner h) ()
  in
  Alcotest.(check bool) "still converges (degenerate smoother)" true
    res.Krylov.Pcg.converged

let test_smoothed_aggregation_fewer_iterations () =
  let p = mesh_problem ~side:40 ~seed:617 in
  let iters h =
    (Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
       ~precond:(Amg.preconditioner h) ())
      .Krylov.Pcg.iterations
  in
  let plain = iters (Amg.build p.Sddm.Problem.a) in
  let sa = iters (Amg.build ~smooth_prolongation:0.66 p.Sddm.Problem.a) in
  Alcotest.(check bool)
    (Printf.sprintf "SA %d <= plain %d" sa plain)
    true (sa <= plain)

(* MD5 over a solution's little-endian float64 bits. *)
let bits_md5 (x : Sparse.Vec.t) =
  let n = Sparse.Vec.length x in
  let buf = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * i) (Int64.bits_of_float x.{i})
  done;
  Digest.to_hex (Digest.bytes buf)

let test_pcg_bits_pinned () =
  (* PCG under both transfer kinds, pinned to the iterations and solution
     bits it reaches on the 40x40 grid: a change to the V-cycle's
     arithmetic or its term order shows here *)
  let p = mesh_problem ~side:40 ~seed:617 in
  List.iter
    (fun (label, smooth_prolongation, iterations, md5) ->
      let h = Amg.build ?smooth_prolongation p.Sddm.Problem.a in
      let r =
        Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
          ~precond:(Amg.preconditioner h) ()
      in
      Alcotest.(check int) (label ^ ": iterations") iterations
        r.Krylov.Pcg.iterations;
      Alcotest.(check string) (label ^ ": solution bits") md5
        (bits_md5 r.Krylov.Pcg.x))
    [
      ("plain", None, 14, "a2a6e20b33085fd957073c89ee533a57");
      ("smoothed", Some 0.66, 7, "cb62ec6d7d331cc295d9133a584060b6");
    ]

let test_jacobi_smoother_converges () =
  let p = mesh_problem ~side:30 ~seed:619 in
  let h = Amg.build ~smoother:(Amg.Jacobi 0.67) p.Sddm.Problem.a in
  let r =
    Krylov.Pcg.solve ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b
      ~precond:(Amg.preconditioner h) ()
  in
  Alcotest.(check bool) "jacobi-smoothed amg converges" true
    r.Krylov.Pcg.converged

let prop_amg_preconditioner_spd_proxy =
  (* PCG requires an SPD preconditioner: check z^T r symmetry-ish via
     <M^-1 r, s> = <r, M^-1 s> on random vectors *)
  QCheck.Test.make ~name:"v-cycle operator is symmetric" ~count:20
    QCheck.(int_bound 10000)
    (fun seed ->
      let p = mesh_problem ~side:12 ~seed in
      let h = Amg.build p.Sddm.Problem.a in
      let n = Sddm.Problem.n p in
      let rng = Rng.create (seed + 5) in
      let r = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
      let s = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
      let mr = Sparse.Vec.create n and ms = Sparse.Vec.create n in
      Amg.v_cycle h r mr;
      Amg.v_cycle h s ms;
      let lhs = Sparse.Vec.dot mr s and rhs = Sparse.Vec.dot r ms in
      Float.abs (lhs -. rhs) < 1e-8 *. (1.0 +. Float.abs lhs))

let () =
  Alcotest.run "amg"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "levels shrink" `Quick test_hierarchy_shrinks;
          Alcotest.test_case "operator complexity" `Quick
            test_operator_complexity_bounded;
          Alcotest.test_case "small matrix = direct" `Quick
            test_small_matrix_direct;
          Alcotest.test_case "theta extremes" `Quick test_theta_extremes;
        ] );
      ( "solve",
        [
          Alcotest.test_case "v-cycle contracts" `Quick
            test_v_cycle_reduces_error;
          Alcotest.test_case "standalone iteration" `Quick test_standalone_solve;
          Alcotest.test_case "as PCG preconditioner" `Quick test_amg_pcg;
          Alcotest.test_case "v-cycle allocation bound" `Quick
            test_v_cycle_allocation_bound;
          Alcotest.test_case "smoothed aggregation" `Quick
            test_smoothed_aggregation_fewer_iterations;
          Alcotest.test_case "pcg bits pinned" `Quick test_pcg_bits_pinned;
          Alcotest.test_case "jacobi smoother" `Quick
            test_jacobi_smoother_converges;
        ] );
      ("property", Test_util.qcheck [ prop_amg_preconditioner_spd_proxy ]);
    ]
