(* Cross-module edge cases: degenerate sizes, extreme values, and
   pathological graphs that every layer must survive. *)

let all_solvers () =
  [
    Powerrchol.Solver.powerrchol ();
    Powerrchol.Solver.rchol ();
    Powerrchol.Solver.lt_rchol ();
    Powerrchol.Solver.fegrass ();
    Powerrchol.Solver.fegrass_ichol ();
    Powerrchol.Solver.amg_pcg ();
    Powerrchol.Solver.direct ();
    Powerrchol.Solver.jacobi ();
  ]

(* ---- single node ---- *)

let test_single_node () =
  let graph = Sddm.Graph.create ~n:1 ~edges:[||] in
  let p =
    Sddm.Problem.of_graph ~name:"one" ~graph ~d:[| 4.0 |] ~b:(Test_util.vec [| 8.0 |])
  in
  List.iter
    (fun s ->
      let r = Powerrchol.Solver.run s p in
      Alcotest.(check bool)
        (s.Powerrchol.Solver.name ^ " solves 1x1")
        true r.Powerrchol.Solver.converged;
      Alcotest.(check (float 1e-9)) "x = b/d" 2.0 r.Powerrchol.Solver.x.{0})
    (all_solvers ())

(* ---- two nodes, one edge ---- *)

let test_two_nodes () =
  let graph = Sddm.Graph.create ~n:2 ~edges:[| (0, 1, 3.0) |] in
  let d = [| 1.0; 0.0 |] in
  let b = [| 0.0; 1.0 |] in
  let p = Sddm.Problem.of_graph ~name:"two" ~graph ~d ~b:(Test_util.vec b) in
  let expected =
    Test_util.dense_solve (Sparse.Csc.to_dense p.Sddm.Problem.a) b
  in
  List.iter
    (fun s ->
      let r = Powerrchol.Solver.run ~rtol:1e-12 s p in
      Alcotest.(check bool)
        (s.Powerrchol.Solver.name ^ " exact on 2x2")
        true
        (Sparse.Vec.max_abs_diff r.Powerrchol.Solver.x (Test_util.vec expected)
         < 1e-8))
    (all_solvers ())

(* ---- disconnected components, each grounded ---- *)

let test_disconnected_components () =
  let graph =
    Sddm.Graph.create ~n:6
      ~edges:[| (0, 1, 1.0); (1, 2, 1.0); (3, 4, 2.0); (4, 5, 2.0) |]
  in
  let d = [| 1.0; 0.0; 0.0; 0.5; 0.0; 0.0 |] in
  let rng = Rng.create 3 in
  let b = Array.init 6 (fun _ -> Rng.float rng) in
  let p = Sddm.Problem.of_graph ~name:"disc" ~graph ~d ~b:(Test_util.vec b) in
  let expected =
    Test_util.dense_solve (Sparse.Csc.to_dense p.Sddm.Problem.a) b
  in
  List.iter
    (fun s ->
      let r = Powerrchol.Solver.run ~rtol:1e-10 s p in
      Alcotest.(check bool)
        (s.Powerrchol.Solver.name ^ " handles components")
        true
        (Sparse.Vec.max_abs_diff r.Powerrchol.Solver.x (Test_util.vec expected)
         < 1e-6))
    [
      Powerrchol.Solver.powerrchol ();
      Powerrchol.Solver.lt_rchol ();
      Powerrchol.Solver.direct ();
    ]

(* ---- extreme weight ratios ---- *)

let test_extreme_weights () =
  (* 12 orders of magnitude between adjacent edges *)
  let graph =
    Sddm.Graph.create ~n:4
      ~edges:[| (0, 1, 1e-6); (1, 2, 1e6); (2, 3, 1.0); (0, 3, 1e-3) |]
  in
  let d = [| 1e3; 0.0; 0.0; 0.0 |] in
  let b = [| 1.0; -1.0; 2.0; 0.5 |] in
  let p = Sddm.Problem.of_graph ~name:"extreme" ~graph ~d ~b:(Test_util.vec b) in
  let expected =
    Test_util.dense_solve (Sparse.Csc.to_dense p.Sddm.Problem.a) b
  in
  List.iter
    (fun s ->
      let r = Powerrchol.Solver.run ~rtol:1e-12 s p in
      let scale = Sparse.Vec.norm_inf (Test_util.vec expected) in
      Alcotest.(check bool)
        (s.Powerrchol.Solver.name ^ " survives 12 decades")
        true
        (Sparse.Vec.max_abs_diff r.Powerrchol.Solver.x (Test_util.vec expected)
         < 1e-6 *. scale))
    [
      Powerrchol.Solver.powerrchol ();
      Powerrchol.Solver.rchol ();
      Powerrchol.Solver.direct ();
    ]

(* ---- parallel edges ---- *)

let test_parallel_edges () =
  let graph =
    Sddm.Graph.create ~n:3
      ~edges:[| (0, 1, 1.0); (0, 1, 2.0); (1, 2, 1.0); (2, 1, 0.5) |]
  in
  let d = [| 1.0; 0.0; 0.0 |] in
  let b = [| 1.0; 0.0; 1.0 |] in
  let p = Sddm.Problem.of_graph ~name:"parallel" ~graph ~d ~b:(Test_util.vec b) in
  (* matrix must equal the coalesced version's *)
  let g2 =
    Sddm.Graph.create ~n:3 ~edges:[| (0, 1, 3.0); (1, 2, 1.5) |]
  in
  let a2 = Sddm.Graph.to_sddm g2 d in
  Alcotest.(check (float 1e-12)) "coalesced equivalence" 0.0
    (Sparse.Csc.frobenius_diff p.Sddm.Problem.a a2);
  let r =
    Powerrchol.Solver.run ~rtol:1e-10 (Powerrchol.Solver.powerrchol ()) p
  in
  Alcotest.(check bool) "solves" true r.Powerrchol.Solver.converged

(* ---- complete graph (dense row blocks) ---- *)

let test_complete_graph () =
  let n = 30 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j, 1.0 +. float_of_int ((i + j) mod 5)) :: !edges
    done
  done;
  let graph = Sddm.Graph.create ~n ~edges:(Array.of_list !edges) in
  let d = Array.make n 0.0 in
  d.(7) <- 1.0;
  let rng = Rng.create 5 in
  let b = Array.init n (fun _ -> Rng.float rng) in
  let p = Sddm.Problem.of_graph ~name:"clique" ~graph ~d ~b:(Test_util.vec b) in
  List.iter
    (fun s ->
      let r = Powerrchol.Solver.run s p in
      Alcotest.(check bool)
        (s.Powerrchol.Solver.name ^ " on K30")
        true r.Powerrchol.Solver.converged)
    (all_solvers ())

(* ---- long path (deep elimination chains, recursion safety) ---- *)

let test_long_path () =
  let n = 200_000 in
  let graph = Test_util.path_graph n in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  let b = Sparse.Vec.make n 1e-6 in
  let p = Sddm.Problem.of_graph ~name:"path" ~graph ~d ~b in
  (* trees factor exactly: one PCG iteration expected *)
  let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  Alcotest.(check bool)
    (Printf.sprintf "long path in %d iterations" r.Powerrchol.Solver.iterations)
    true
    (r.Powerrchol.Solver.converged && r.Powerrchol.Solver.iterations <= 3)

(* ---- star with huge hub degree ---- *)

let test_big_star () =
  let n = 50_000 in
  let graph = Test_util.star_graph n in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  let b = Sparse.Vec.make n 1e-6 in
  let p = Sddm.Problem.of_graph ~name:"star" ~graph ~d ~b in
  let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  Alcotest.(check bool) "big star converges" true r.Powerrchol.Solver.converged

(* ---- zero rhs through the full pipeline ---- *)

let test_zero_rhs_pipeline () =
  let p0 = Test_util.random_problem ~seed:951 ~n:50 ~m:120 in
  let p =
    Sddm.Problem.of_graph ~name:"zero" ~graph:p0.Sddm.Problem.graph
      ~d:p0.Sddm.Problem.d ~b:(Sparse.Vec.create 50)
  in
  let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  Alcotest.(check bool) "zero in, zero out" true
    (r.Powerrchol.Solver.converged
    && Sparse.Vec.norm_inf r.Powerrchol.Solver.x = 0.0)

(* ---- seeds: different seeds, same solution ---- *)

let test_seed_independence_of_solution () =
  let p = Test_util.random_problem ~seed:953 ~n:400 ~m:1500 in
  let r1 =
    Powerrchol.Solver.run ~rtol:1e-10 (Powerrchol.Solver.powerrchol ~seed:1 ()) p
  in
  let r2 =
    Powerrchol.Solver.run ~rtol:1e-10 (Powerrchol.Solver.powerrchol ~seed:2 ()) p
  in
  Alcotest.(check bool) "both converge" true
    (r1.Powerrchol.Solver.converged && r2.Powerrchol.Solver.converged);
  let scale = Sparse.Vec.norm_inf r1.Powerrchol.Solver.x in
  Alcotest.(check bool) "solutions agree despite different randomness" true
    (Sparse.Vec.max_abs_diff r1.Powerrchol.Solver.x r2.Powerrchol.Solver.x
     < 1e-7 *. (scale +. 1.0))

(* ---- tiny tolerance / huge tolerance ---- *)

let test_tolerance_extremes () =
  let p = Test_util.random_problem ~seed:957 ~n:100 ~m:300 in
  let loose =
    Powerrchol.Solver.run ~rtol:0.5 (Powerrchol.Solver.powerrchol ()) p
  in
  Alcotest.(check bool) "loose tolerance quick" true
    (loose.Powerrchol.Solver.converged
    && loose.Powerrchol.Solver.iterations <= 2);
  let tight =
    Powerrchol.Solver.run ~rtol:1e-13 (Powerrchol.Solver.powerrchol ()) p
  in
  Alcotest.(check bool) "tight tolerance achievable" true
    (tight.Powerrchol.Solver.residual < 1e-12)

(* ---- property: merge + expand stays close for random via-heavy grids ---- *)

let prop_merge_expand_close =
  QCheck.Test.make ~name:"merge+expand close to direct solve" ~count:25
    QCheck.(int_bound 10000)
    (fun seed ->
      let spec =
        Powergrid.Generate.default ~nx:14 ~ny:14 ~seed:(seed + 1)
      in
      let p = Powergrid.Generate.generate spec in
      let direct = Factor.Chol.solve p.Sddm.Problem.a p.Sddm.Problem.b in
      let m = Powergrid.Merge.merge p in
      let mp = m.Powergrid.Merge.problem in
      let xm = Factor.Chol.solve mp.Sddm.Problem.a mp.Sddm.Problem.b in
      let expanded = Powergrid.Merge.expand m xm in
      Sparse.Vec.max_abs_diff direct expanded
      < 0.05 *. (Sparse.Vec.norm_inf direct +. 1e-12))

let prop_all_randomized_variants_converge =
  QCheck.Test.make ~name:"all randomized variants converge on random SDDM"
    ~count:25
    QCheck.(pair (int_bound 10000) (int_range 10 60))
    (fun (seed, n) ->
      let p = Test_util.random_problem ~seed ~n ~m:(3 * n) in
      List.for_all
        (fun s ->
          (Powerrchol.Solver.run ~max_iter:1000 s p).Powerrchol.Solver.converged)
        [
          Powerrchol.Solver.powerrchol ();
          Powerrchol.Solver.rchol ~ordering:Powerrchol.Solver.Rcm ();
          Powerrchol.Solver.lt_rchol ~ordering:Powerrchol.Solver.Nested_dissection ();
          Powerrchol.Solver.rand_chol_custom ~name:"lt-rchol-b2"
            ~sort:(Factor.Rand_chol.Counting_sort { buckets = 2 })
            ~sampling:Factor.Rand_chol.Shared_random
            ~ordering:Powerrchol.Solver.Amd ();
        ])

let () =
  Alcotest.run "edge-cases"
    [
      ( "degenerate sizes",
        [
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "two nodes" `Quick test_two_nodes;
          Alcotest.test_case "disconnected" `Quick test_disconnected_components;
          Alcotest.test_case "zero rhs" `Quick test_zero_rhs_pipeline;
        ] );
      ( "pathological graphs",
        [
          Alcotest.test_case "extreme weights" `Quick test_extreme_weights;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "complete graph" `Quick test_complete_graph;
          Alcotest.test_case "long path" `Slow test_long_path;
          Alcotest.test_case "big star" `Slow test_big_star;
        ] );
      ( "solver behavior",
        [
          Alcotest.test_case "seed independence" `Quick
            test_seed_independence_of_solution;
          Alcotest.test_case "tolerance extremes" `Quick
            test_tolerance_extremes;
        ] );
      ( "property",
        Test_util.qcheck
          [ prop_merge_expand_close; prop_all_randomized_variants_converge ] );
    ]
