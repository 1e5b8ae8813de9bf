module Csc = Sparse.Csc
module Vec = Sparse.Vec

let spd_problem ~seed ~n ~m =
  let p = Test_util.random_problem ~seed ~n ~m in
  p.Sddm.Problem.a

(* ---- Lower ---- *)

let sample_lower () =
  (* L = [2 0 0; 1 3 0; 0 4 5] in diag-first column storage *)
  Factor.Lower.of_arrays ~n:3 ~col_ptr:[| 0; 2; 4; 5 |]
    ~rows:[| 0; 1; 1; 2; 2 |] ~vals:[| 2.0; 1.0; 3.0; 4.0; 5.0 |]

let test_lower_validation () =
  Alcotest.check_raises "diag must come first"
    (Invalid_argument "Lower: first entry must be diagonal") (fun () ->
      ignore
        (Factor.Lower.of_arrays ~n:2 ~col_ptr:[| 0; 2; 3 |]
           ~rows:[| 1; 0; 1 |] ~vals:[| 1.0; 1.0; 1.0 |]));
  Alcotest.check_raises "positive diagonal required"
    (Invalid_argument "Lower: nonpositive diagonal") (fun () ->
      ignore
        (Factor.Lower.of_arrays ~n:1 ~col_ptr:[| 0; 1 |] ~rows:[| 0 |]
           ~vals:[| 0.0 |]));
  (* the validation reads without bounds checks, so a column that runs
     past col_ptr's last entry must be caught before it is read *)
  Alcotest.check_raises "col_ptr bounded by its last entry"
    (Invalid_argument "Lower: col_ptr passes its last entry") (fun () ->
      ignore
        (Factor.Lower.of_arrays ~n:2 ~col_ptr:[| 0; 3; 2 |] ~rows:[| 0; 1 |]
           ~vals:[| 1.0; 1.0 |]))

let test_lower_solves () =
  let l = sample_lower () in
  (* forward: L x = b *)
  let x = Test_util.vec [| 4.0; 11.0; 22.0 |] in
  Factor.Lower.solve_in_place l x;
  Test_util.check_vec ~eps:1e-12 "forward" [| 2.0; 3.0; 2.0 |] x;
  (* backward: L^T y = c *)
  let y = Test_util.vec [| 15.0; 23.0; 10.0 |] in
  Factor.Lower.solve_transpose_in_place l y;
  Test_util.check_vec ~eps:1e-12 "backward" [| 5.0; 5.0; 2.0 |] y

(* The SpMV kernels and the triangular solves read their indices through
   the index backend's primitives. Check each against a dense product
   formed here from the stored entries, read with [Idx.get], on a factor
   of a small generated grid. The bound is componentwise: any summation
   order lands within a few ulps of |M| |v|, and a misread index does
   not. *)
let test_kernels_dense_reference () =
  let spec = Powergrid.Generate.default ~nx:16 ~ny:16 ~seed:5151 in
  let p =
    Powergrid.Generate.circuit_to_problem ~name:"dense-ref"
      (Powergrid.Generate.generate_circuit spec)
  in
  let n = Sddm.Problem.n p in
  Alcotest.(check bool) "grid has at most 300 nodes" true (n <= 300);
  let dense_of col_ptr rows vals =
    let m = Array.make_matrix n n 0.0 in
    for j = 0 to n - 1 do
      for k = Sparse.Idx.get col_ptr j to Sparse.Idx.get col_ptr (j + 1) - 1 do
        let i = Sparse.Idx.get rows k in
        m.(i).(j) <- m.(i).(j) +. Vec.get vals k
      done
    done;
    m
  in
  let a = p.Sddm.Problem.a in
  let dense_a = dense_of a.Csc.col_ptr a.Csc.row_idx a.Csc.values in
  let l =
    Factor.Lt_rchol.factorize ~rng:(Rng.create 7) p.Sddm.Problem.graph
      ~d:p.Sddm.Problem.d
  in
  let dense_l =
    dense_of l.Factor.Lower.col_ptr l.Factor.Lower.rows l.Factor.Lower.vals
  in
  let dense_lt = Test_util.dense_transpose dense_l in
  (* [want] must equal [m v] *)
  let check_product name m v want =
    let v = Test_util.arr v and want = Test_util.arr want in
    Array.iteri
      (fun i row ->
        let sum = ref 0.0 and mag = ref 0.0 in
        Array.iteri
          (fun j mij ->
            sum := !sum +. (mij *. v.(j));
            mag := !mag +. Float.abs (mij *. v.(j)))
          row;
        if Float.abs (!sum -. want.(i)) > 1e-12 *. !mag then
          Alcotest.failf "%s: row %d gives %.17g, dense reference %.17g" name
            i want.(i) !sum)
      m
  in
  let rng = Rng.create 11 in
  let b = Vec.init n (fun _ -> Rng.float rng -. 0.5) in
  let y = Vec.create n in
  Csc.spmv_into a b y;
  check_product "spmv_into" dense_a b y;
  Csc.spmv_sym_into a b y;
  check_product "spmv_sym_into" dense_a b y;
  List.iter
    (fun (name, solve, m) ->
      let x = Vec.copy b in
      solve x;
      check_product name m x b)
    [
      ("solve_in_place", Factor.Lower.solve_in_place l, dense_l);
      ( "solve_transpose_in_place",
        Factor.Lower.solve_transpose_in_place l,
        dense_lt );
    ]

let test_lower_multiply_roundtrip () =
  let l = sample_lower () in
  let a = Factor.Lower.multiply l in
  (* L L^T of the sample *)
  let expected =
    Csc.of_dense
      [| [| 4.0; 2.0; 0.0 |]; [| 2.0; 10.0; 12.0 |]; [| 0.0; 12.0; 41.0 |] |]
  in
  Test_util.check_float "L L^T" 0.0 (Csc.frobenius_diff a expected)

let test_lower_csc_roundtrip () =
  let l = sample_lower () in
  let l' = Factor.Lower.of_csc (Factor.Lower.to_csc l) in
  Test_util.check_float "roundtrip" 0.0
    (Csc.frobenius_diff (Factor.Lower.to_csc l) (Factor.Lower.to_csc l'))

let test_apply_preconditioner_identity_perm () =
  let l = sample_lower () in
  let a = Factor.Lower.multiply l in
  let perm = Sparse.Perm.identity 3 in
  let scratch = Vec.create 3 in
  let r = Test_util.vec [| 1.0; 2.0; 3.0 |] in
  let z = Vec.create 3 in
  Factor.Lower.apply_preconditioner l ~perm ~scratch r z;
  (* z = (L L^T)^-1 r, so A z = r *)
  Test_util.check_vec ~eps:1e-9 "A z = r" (Test_util.arr r) (Csc.spmv a z)

let test_apply_preconditioner_with_perm () =
  let p = Test_util.random_problem ~seed:401 ~n:25 ~m:60 in
  let a = p.Sddm.Problem.a in
  let rng = Rng.create 402 in
  let perm = Sparse.Perm.random rng 25 in
  let pa = Csc.permute_sym a perm in
  let l = Factor.Chol.factorize pa in
  let scratch = Vec.create 25 in
  let r = Vec.init 25 (fun _ -> Rng.float rng) in
  let z = Vec.create 25 in
  Factor.Lower.apply_preconditioner l ~perm ~scratch r z;
  (* exact factor of the permuted matrix: z must solve A z = r *)
  Alcotest.(check bool) "A z = r through permutation" true
    (Vec.max_abs_diff (Csc.spmv a z) r < 1e-8)

(* ---- Etree ---- *)

let arrow_matrix () =
  (* arrow matrix: dense first row/col + diagonal *)
  Csc.of_dense
    [|
      [| 10.0; -1.0; -1.0; -1.0 |];
      [| -1.0; 10.0; 0.0; 0.0 |];
      [| -1.0; 0.0; 10.0; 0.0 |];
      [| -1.0; 0.0; 0.0; 10.0 |];
    |]

let test_etree_arrow () =
  let parent = Factor.Etree.etree (arrow_matrix ()) in
  (* eliminating node 0 links everything: parent chain 0->1->2->3 *)
  Alcotest.(check (array int)) "chain" [| 1; 2; 3; -1 |] parent

let test_etree_diagonal () =
  let a = Csc.identity 5 in
  let parent = Factor.Etree.etree a in
  Alcotest.(check (array int)) "forest of singletons"
    [| -1; -1; -1; -1; -1 |]
    parent

(* ---- exact Cholesky ---- *)

let test_chol_reconstructs () =
  let a = spd_problem ~seed:411 ~n:35 ~m:90 in
  let l = Factor.Chol.factorize a in
  Alcotest.(check bool) "A = L L^T" true
    (Csc.frobenius_diff a (Factor.Lower.multiply l) < 1e-10)

let test_chol_solve_matches_dense () =
  let p = Test_util.random_problem ~seed:413 ~n:30 ~m:80 in
  let a = p.Sddm.Problem.a and b = p.Sddm.Problem.b in
  let x = Factor.Chol.solve a b in
  let x_ref = Test_util.dense_solve (Csc.to_dense a) (Test_util.arr b) in
  Alcotest.(check bool) "matches dense solve" true
    (Vec.max_abs_diff x (Test_util.vec x_ref) < 1e-9)

let test_chol_not_pd () =
  let a = Csc.of_dense [| [| 1.0; -2.0 |]; [| -2.0; 1.0 |] |] in
  Alcotest.(check bool) "raises" true
    (match Factor.Chol.factorize a with
     | _ -> false
     | exception Factor.Chol.Not_positive_definite _ -> true)

let test_chol_diag_matrix () =
  let a = Csc.of_dense [| [| 4.0; 0.0 |]; [| 0.0; 9.0 |] |] in
  let l = Factor.Chol.factorize a in
  Test_util.check_vec ~eps:1e-12 "sqrt diag" [| 2.0; 3.0 |]
    (Factor.Lower.diag l)

let non_square () =
  Csc.of_triplet (Sparse.Triplet.create ~n_rows:3 ~n_cols:2 ())

let test_chol_rejects_non_square () =
  Alcotest.check_raises "typed error"
    (Invalid_argument "Chol.factorize: matrix is 3x2, not square") (fun () ->
      ignore (Factor.Chol.factorize (non_square ())))

(* ---- IChol ---- *)

let test_ichol_zero_drop_is_exact () =
  let a = spd_problem ~seed:417 ~n:30 ~m:75 in
  let l = Factor.Ichol.factorize ~drop_tol:0.0 a in
  Alcotest.(check bool) "exact when nothing dropped" true
    (Csc.frobenius_diff a (Factor.Lower.multiply l) < 1e-10)

let test_ichol_drops_fill () =
  let a =
    Sddm.Graph.to_sddm (Test_util.mesh_graph 15 15)
      (Array.init 225 (fun i -> if i = 0 then 1.0 else 0.0))
  in
  let exact = Factor.Chol.factorize a in
  let inc = Factor.Ichol.factorize ~drop_tol:1e-2 a in
  Alcotest.(check bool) "fewer nonzeros than exact" true
    (Factor.Lower.nnz inc < Factor.Lower.nnz exact)

let test_ichol_preconditions () =
  let p = Test_util.random_problem ~seed:419 ~n:200 ~m:600 in
  let a = p.Sddm.Problem.a in
  let l = Factor.Ichol.factorize ~drop_tol:1e-3 a in
  let pc =
    Krylov.Precond.of_factor ~perm:(Sparse.Perm.identity 200) l
  in
  let res = Krylov.Pcg.solve ~a ~b:p.Sddm.Problem.b ~precond:pc () in
  Alcotest.(check bool) "pcg converges with ichol" true res.Krylov.Pcg.converged

let test_ichol_rejects_non_square () =
  Alcotest.check_raises "typed error"
    (Invalid_argument "Ichol.factorize: matrix is 3x2, not square") (fun () ->
      ignore (Factor.Ichol.factorize (non_square ())))

(* ---- Locate (Alg. 2) ---- *)

let test_locate_basic () =
  let a = [| 1.0; 3.0; 5.0; 7.0 |] in
  let targets = [| 0.5; 3.0; 4.0; 7.0 |] in
  Alcotest.(check (array int)) "locations" [| 0; 1; 2; 3 |]
    (Factor.Locate.locate ~a ~targets)

let test_locate_repeats () =
  let a = [| 2.0; 2.0; 2.0; 9.0 |] in
  let targets = [| 2.0; 2.0; 3.0 |] in
  Alcotest.(check (array int)) "first match" [| 0; 0; 3 |]
    (Factor.Locate.locate ~a ~targets)

let test_locate_into_rejects_long_prefixes () =
  let a = [| 1.0; 2.0 |] and targets = [| 1.0; 2.0 |] in
  let out = Array.make 1 0 in
  Alcotest.check_raises "a_len beyond a"
    (Invalid_argument "Locate.locate_into: a_len exceeds the length of a")
    (fun () -> Factor.Locate.locate_into ~a ~a_len:3 ~targets ~t_len:1 ~out);
  Alcotest.check_raises "t_len beyond out"
    (Invalid_argument
       "Locate.locate_into: t_len exceeds the length of targets or out")
    (fun () -> Factor.Locate.locate_into ~a ~a_len:2 ~targets ~t_len:2 ~out)

let prop_locate_matches_reference =
  QCheck.Test.make ~name:"two-pointer locate = binary-search reference"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 40) (float_range 0.0 100.0))
        (list_of_size (Gen.int_range 1 40) (float_range 0.0 1.0)))
    (fun (avals, tfracs) ->
      let a = Array.of_list avals in
      Array.sort compare a;
      let n = Array.length a in
      (* targets within [min a, max a], sorted ascending *)
      let lo = a.(0) and hi = a.(n - 1) in
      let targets =
        Array.of_list (List.map (fun f -> lo +. (f *. (hi -. lo))) tfracs)
      in
      Array.sort compare targets;
      Factor.Locate.locate ~a ~targets
      = Factor.Locate.locate_reference ~a ~targets)

(* ---- randomized Cholesky ---- *)

(* An excess vector one entry short of the graph: every randomized entry
   point raises the same typed error before factoring anything. *)
let short_d_case name factorize =
  Alcotest.test_case (name ^ " rejects a short d") `Quick (fun () ->
      Alcotest.check_raises "one excess per vertex"
        (Invalid_argument
           "Rand_chol.factorize: d has 2 entries for a graph of 3 vertices")
        (fun () ->
          factorize ~rng:(Rng.create 1) (Test_util.path_graph 3)
            ~d:[| 1.0; 0.0 |]))

let short_d_cases =
  let lt_sort =
    Factor.Rand_chol.Counting_sort
      { buckets = Factor.Lt_rchol.default_buckets }
  and shared = Factor.Rand_chol.Shared_random in
  [
    short_d_case "Rand_chol.factorize" (fun ~rng g ~d ->
        ignore
          (Factor.Rand_chol.factorize ~sort:lt_sort ~sampling:shared ~rng g ~d));
    short_d_case "Rand_chol.factorize_updatable" (fun ~rng g ~d ->
        ignore
          (Factor.Rand_chol.factorize_updatable ~sort:lt_sort ~sampling:shared
             ~rng g ~d));
    short_d_case "Lt_rchol.factorize" (fun ~rng g ~d ->
        ignore (Factor.Lt_rchol.factorize ~rng g ~d));
    short_d_case "Lt_rchol.factorize_updatable" (fun ~rng g ~d ->
        ignore (Factor.Lt_rchol.factorize_updatable ~rng g ~d));
    short_d_case "Rchol.factorize" (fun ~rng g ~d ->
        ignore (Factor.Rchol.factorize ~rng g ~d));
  ]

let all_variants =
  [
    ("rchol", fun rng g d -> Factor.Rchol.factorize ~rng g ~d);
    ("lt-rchol", fun rng g d -> Factor.Lt_rchol.factorize ~rng g ~d);
    ( "no-sort",
      fun rng g d ->
        Factor.Rand_chol.factorize ~sort:Factor.Rand_chol.No_sort
          ~sampling:Factor.Rand_chol.Per_neighbor ~rng g ~d );
    ( "counting+binary",
      fun rng g d ->
        Factor.Rand_chol.factorize
          ~sort:(Factor.Rand_chol.Counting_sort { buckets = 64 })
          ~sampling:Factor.Rand_chol.Per_neighbor ~rng g ~d );
    ( "exact+shared",
      fun rng g d ->
        Factor.Rand_chol.factorize ~sort:Factor.Rand_chol.Exact_sort
          ~sampling:Factor.Rand_chol.Shared_random ~rng g ~d );
  ]

let tree_exactness_cases =
  List.map
    (fun (name, factorize) ->
      Alcotest.test_case (name ^ " exact on trees") `Quick (fun () ->
          let g = Test_util.path_graph 50 in
          let d = Array.make 50 0.0 in
          d.(0) <- 2.0;
          let a = Sddm.Graph.to_sddm g d in
          let rng = Rng.create 421 in
          let l = factorize rng g d in
          Alcotest.(check bool) "A = L L^T on tree" true
            (Csc.frobenius_diff a (Factor.Lower.multiply l) < 1e-9)))
    all_variants

let star_exactness_cases =
  List.map
    (fun (name, factorize) ->
      Alcotest.test_case (name ^ " exact on stars") `Quick (fun () ->
          (* eliminating leaves first leaves no cliques to sample *)
          let g = Test_util.star_graph 40 in
          let gp =
            Sddm.Graph.permute g
              (Array.init 40 (fun k -> (k + 1) mod 40))
          in
          let d = Array.make 40 0.0 in
          d.(39) <- 1.0;
          (* hub is now index 39 *)
          let a = Sddm.Graph.to_sddm gp d in
          let rng = Rng.create 423 in
          let l = factorize rng gp d in
          Alcotest.(check bool) "exact" true
            (Csc.frobenius_diff a (Factor.Lower.multiply l) < 1e-9)))
    all_variants

let test_rand_chol_deterministic () =
  let g, d = Test_util.random_sddm ~seed:427 ~n:100 ~m:300 in
  let l1 = Factor.Lt_rchol.factorize ~rng:(Rng.create 5) g ~d in
  let l2 = Factor.Lt_rchol.factorize ~rng:(Rng.create 5) g ~d in
  Test_util.check_float "same factor for same seed" 0.0
    (Csc.frobenius_diff (Factor.Lower.to_csc l1) (Factor.Lower.to_csc l2))

let test_rand_chol_singular_detection () =
  (* pure Laplacian with no ground: must raise a typed Breakdown carrying
     the offending pivot (zero, at the last elimination position) *)
  let g = Test_util.path_graph 10 in
  let d = Array.make 10 0.0 in
  let rng = Rng.create 429 in
  Alcotest.(check bool) "raises Breakdown with zero pivot" true
    (match Factor.Rchol.factorize ~rng g ~d with
     | _ -> false
     | exception Factor.Rand_chol.Breakdown { column; pivot } ->
       column >= 0 && column < 10 && not (pivot > 0.0))

(* Paths and grounded meshes laid end to end, each its own component:
   [`Path len] is ungrounded, so its elimination ends in a zero pivot at
   its last column; [`Mesh (w, h)] is grounded at its first vertex. *)
let components parts =
  let edges = ref [] and grounds = ref [] in
  let n =
    List.fold_left
      (fun lo part ->
        match part with
        | `Path len ->
          for i = lo to lo + len - 2 do
            edges := (i, i + 1, 1.0 +. float_of_int (i mod 3)) :: !edges
          done;
          lo + len
        | `Mesh (w, h) ->
          Sddm.Graph.iter_edges (Test_util.mesh_graph w h) (fun u v wt ->
              edges := (lo + u, lo + v, wt) :: !edges);
          grounds := lo :: !grounds;
          lo + (w * h))
      0 parts
  in
  let d = Array.make n 0.0 in
  List.iter (fun i -> d.(i) <- 1.0) !grounds;
  (Sddm.Graph.create ~n ~edges:(Array.of_list !edges), d)

let test_breakdown_first_failing_column () =
  (* One ascending pass: the column a Breakdown reports is the first
     zero pivot in elimination order, whatever components follow it, for
     every randomized entry point *)
  let entries =
    [
      ( "lt-rchol",
        fun g ~d -> ignore (Factor.Lt_rchol.factorize ~rng:(Rng.create 5) g ~d)
      );
      ( "rchol",
        fun g ~d -> ignore (Factor.Rchol.factorize ~rng:(Rng.create 5) g ~d) );
      ( "updatable lt-rchol",
        fun g ~d ->
          ignore
            (Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 5) g ~d) );
    ]
  in
  let check label parts column =
    let g, d = components parts in
    List.iter
      (fun (entry, factorize) ->
        match factorize g ~d with
        | () -> Alcotest.failf "%s, %s: expected Breakdown" label entry
        | exception Factor.Rand_chol.Breakdown { pivot; column = c } ->
          Alcotest.(check int) (Printf.sprintf "%s, %s: column" label entry)
            column c;
          Alcotest.(check bool) "nonpositive pivot" true (not (pivot > 0.0)))
      entries
  in
  check "path between meshes" [ `Mesh (20, 20); `Path 40; `Mesh (10, 10) ] 439;
  check "two paths" [ `Mesh (20, 20); `Path 30; `Path 40; `Mesh (20, 20) ] 429;
  check "path first" [ `Path 30; `Mesh (20, 20); `Path 40 ] 29

let test_rand_chol_diag_positive () =
  let g, d = Test_util.random_sddm ~seed:431 ~n:150 ~m:500 in
  let rng = Rng.create 433 in
  let l = Factor.Lt_rchol.factorize ~rng g ~d in
  Sparse.Vec.iteri
    (fun _ v -> Alcotest.(check bool) "positive diag" true (v > 0.0))
    (Factor.Lower.diag l)

let test_unbiasedness () =
  (* triangle with distinct weights, eliminate node 0 with D only at the
     far end: average sampled preconditioner over many seeds must approach
     the exact Schur complement. Checked through E[L L^T] ~ A. *)
  let g =
    Sddm.Graph.create ~n:3
      ~edges:[| (0, 1, 1.0); (0, 2, 2.0); (1, 2, 0.5) |]
  in
  let d = [| 0.1; 0.0; 0.3 |] in
  let a = Sddm.Graph.to_sddm g d in
  let trials = 4000 in
  let acc = Array.make_matrix 3 3 0.0 in
  for t = 0 to trials - 1 do
    let rng = Rng.create (1000 + t) in
    let l = Factor.Rchol.factorize ~rng g ~d in
    let m = Csc.to_dense (Factor.Lower.multiply l) in
    for i = 0 to 2 do
      for j = 0 to 2 do
        acc.(i).(j) <- acc.(i).(j) +. m.(i).(j)
      done
    done
  done;
  let avg =
    Array.map (Array.map (fun v -> v /. float_of_int trials)) acc
  in
  let dense_a = Csc.to_dense a in
  let err = Test_util.max_abs_2d (Test_util.dense_diff avg dense_a) in
  Alcotest.(check bool)
    (Printf.sprintf "E[L L^T] ~ A (err %.4f)" err)
    true (err < 0.05)

let test_expected_clique_weight () =
  Test_util.check_float "formula" 0.5
    (Factor.Rand_chol.expected_clique_weight ~d_k:4.0 ~w_i:1.0 ~w_j:2.0)

let precondition_quality_cases =
  List.map
    (fun (name, factorize) ->
      Alcotest.test_case (name ^ " preconditions a mesh") `Quick (fun () ->
          let g = Test_util.mesh_graph 30 30 in
          let n = 900 in
          let d = Array.make n 0.0 in
          let rng = Rng.create 437 in
          for _ = 1 to 10 do
            d.(Rng.int rng n) <- 5.0
          done;
          let a = Sddm.Graph.to_sddm g d in
          let b = Vec.init n (fun _ -> Rng.float rng) in
          let l = factorize (Rng.create 439) g d in
          let pc = Krylov.Precond.of_factor ~perm:(Sparse.Perm.identity n) l in
          let res = Krylov.Pcg.solve ~a ~b ~precond:pc () in
          (* unsorted sampling (the ablation) is known to produce a weaker
             preconditioner; only demand convergence from it *)
          let limit = if name = "no-sort" then 500 else 100 in
          Alcotest.(check bool)
            (Printf.sprintf "converged in %d iters" res.Krylov.Pcg.iterations)
            true
            (res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations < limit)))
    all_variants

let prop_rand_chol_factors_random_sddm =
  QCheck.Test.make ~name:"randomized factor valid on random SDDM" ~count:60
    QCheck.(triple (int_bound 10000) (int_range 3 40) (int_bound 120))
    (fun (seed, n, m) ->
      let g, d = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      let rng = Rng.create (seed + 7) in
      let l = Factor.Lt_rchol.factorize ~rng g ~d in
      Factor.Lower.dim l = n
      &&
      let ok = ref true in
      Sparse.Vec.iteri
        (fun _ v -> if not (v > 0.0) then ok := false)
        (Factor.Lower.diag l);
      !ok)

let prop_rand_chol_any_permutation =
  QCheck.Test.make
    ~name:"randomized factor preconditions under any vertex order" ~count:30
    QCheck.(triple (int_bound 10000) (int_range 5 30) (int_bound 80))
    (fun (seed, n, m) ->
      let g, d = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      let rng = Rng.create (seed + 11) in
      let perm = Sparse.Perm.random rng n in
      let gp = Sddm.Graph.permute g perm in
      let dp = Array.init n (fun k -> d.(perm.(k))) in
      let l = Factor.Lt_rchol.factorize ~rng gp ~d:dp in
      let a = Sddm.Graph.to_sddm g d in
      let b = Vec.init n (fun _ -> Rng.float rng) in
      let pc = Krylov.Precond.of_factor ~perm l in
      let res = Krylov.Pcg.solve ~a ~b ~precond:pc () in
      res.Krylov.Pcg.converged)

(* ---- updatable (fixed-pattern incremental re-factorization) ---- *)

(* Stage value-preserving excess round-trips on every node so the next
   refactor recomputes the whole factor — the reference against which the
   closure-limited (local) refactor is checked. *)
let mark_all_dirty u =
  let n = Factor.Lower.dim (Factor.Rand_chol.factor u) in
  for i = 0 to n - 1 do
    let s = Factor.Rand_chol.excess u i in
    Factor.Rand_chol.set_excess u i (s +. 1.0);
    Factor.Rand_chol.set_excess u i s
  done

let edge_slot u (a, b) =
  match Factor.Rand_chol.find_edge u a b with
  | Some e -> e
  | None -> Alcotest.fail (Printf.sprintf "edge (%d,%d) not found" a b)

let test_updatable_matches_plain () =
  let g, d = Test_util.random_sddm ~seed:501 ~n:150 ~m:450 in
  let l_plain = Factor.Lt_rchol.factorize ~rng:(Rng.create 7) g ~d in
  let u = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 7) g ~d in
  Test_util.check_float "bit-identical to plain factorize" 0.0
    (Csc.frobenius_diff
       (Factor.Lower.to_csc l_plain)
       (Factor.Lower.to_csc (Factor.Rand_chol.factor u)))

let test_updatable_local_matches_global () =
  let g, d = Test_util.random_sddm ~seed:503 ~n:200 ~m:600 in
  let u1 = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 9) g ~d in
  let u2 = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 9) g ~d in
  (* same edits on both: scale a backbone edge, reground a node *)
  List.iter
    (fun u ->
      let e = edge_slot u (20, 21) in
      Factor.Rand_chol.set_edge_weight u e
        (10.0 *. Factor.Rand_chol.edge_weight u e);
      Factor.Rand_chol.set_excess u 40 3.0)
    [ u1; u2 ];
  mark_all_dirty u2;
  let local_cols = Factor.Rand_chol.refactor u1 in
  Alcotest.(check int) "global refactor touches every column" 200
    (Factor.Rand_chol.refactor u2);
  Alcotest.(check bool) "local closure bounded by n" true (local_cols <= 200);
  Alcotest.(check bool) "edits consumed" true
    (not (Factor.Rand_chol.dirty u1));
  Alcotest.(check bool) "local = global within fp noise" true
    (Csc.frobenius_diff
       (Factor.Lower.to_csc (Factor.Rand_chol.factor u1))
       (Factor.Lower.to_csc (Factor.Rand_chol.factor u2))
    < 1e-9)

let test_updatable_exact_on_tree () =
  (* path grounded at one end: randomized elimination is exact on trees,
     so after a refactor L L^T must equal the edited matrix exactly *)
  let n = 100 in
  let g = Test_util.path_graph n in
  let d = Array.make n 0.0 in
  d.(0) <- 2.0;
  let u = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 11) g ~d in
  let e = edge_slot u (0, 1) in
  Factor.Rand_chol.set_edge_weight u e 5.0;
  (* editing the first edge touches every later column of the path *)
  Alcotest.(check int) "closure is the whole path" n
    (Factor.Rand_chol.refactor u);
  let edited =
    Sddm.Graph.create ~n
      ~edges:
        (Array.init (n - 1) (fun i ->
             (i, i + 1, if i = 0 then 5.0 else 1.0 +. float_of_int (i mod 4))))
  in
  let a' = Sddm.Graph.to_sddm edited d in
  Alcotest.(check bool) "L L^T = edited A on a tree" true
    (Csc.frobenius_diff a'
       (Factor.Lower.multiply (Factor.Rand_chol.factor u))
    < 1e-9)

let test_updatable_preconditions_after_edits () =
  let w = 20 and h = 20 in
  let n = w * h in
  let edges = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let i = (y * w) + x in
      if x + 1 < w then edges := (i, i + 1, 1.0) :: !edges;
      if y + 1 < h then edges := (i, i + w, 1.0) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  let d = Array.make n 0.0 in
  d.(0) <- 4.0;
  d.(n - 1) <- 4.0;
  let g = Sddm.Graph.create ~n ~edges in
  let u = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 13) g ~d in
  (* strengthen one wire, electrically remove another (pattern slot kept),
     reground a node — then solve against the edited matrix *)
  let strengthen = (210, 211) and remove = (45, 65) in
  Factor.Rand_chol.set_edge_weight u (edge_slot u strengthen) 50.0;
  Factor.Rand_chol.set_edge_weight u (edge_slot u remove) 0.0;
  Factor.Rand_chol.set_excess u (n / 2) 2.0;
  ignore (Factor.Rand_chol.refactor u);
  let edited_edges =
    Array.of_list
      (List.filter_map
         (fun (a, b, w) ->
           if (a, b) = remove then None
           else if (a, b) = strengthen then Some (a, b, 50.0)
           else Some (a, b, w))
         (Array.to_list edges))
  in
  let d' = Array.copy d in
  d'.(n / 2) <- 2.0;
  let a' = Sddm.Graph.to_sddm (Sddm.Graph.create ~n ~edges:edited_edges) d' in
  let pc =
    Krylov.Precond.of_factor
      ~perm:(Sparse.Perm.identity n)
      (Factor.Rand_chol.factor u)
  in
  let b = Vec.init n (fun i -> sin (float_of_int i)) in
  let res = Krylov.Pcg.solve ~a:a' ~b ~precond:pc () in
  Alcotest.(check bool)
    (Printf.sprintf "pcg converges on the edited matrix (%d iters)"
       res.Krylov.Pcg.iterations)
    true
    (res.Krylov.Pcg.converged && res.Krylov.Pcg.iterations < 200);
  Alcotest.(check bool) "true residual small" true
    (Vec.max_abs_diff (Csc.spmv a' res.Krylov.Pcg.x) b < 1e-5)

let test_updatable_breakdown_on_unground () =
  let n = 50 in
  let g = Test_util.path_graph n in
  let d = Array.make n 0.0 in
  d.(0) <- 2.0;
  let u = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 17) g ~d in
  (* removing the only ground connection makes the matrix singular: the
     refactor must surface a typed Breakdown, not silently succeed *)
  Factor.Rand_chol.set_excess u 0 0.0;
  Alcotest.(check bool) "raises Breakdown" true
    (match Factor.Rand_chol.refactor u with
    | _ -> false
    | exception Factor.Rand_chol.Breakdown { pivot; _ } -> not (pivot > 0.0))

(* ---- the elimination order (DESIGN.md §15) ---- *)

(* A mesh under the partitioned ordering, grounded at two corners *)
let partitioned_mesh ~w ~h =
  let g = Test_util.mesh_graph w h in
  let n = w * h in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  d.(n - 1) <- 0.5;
  let perm = Ordering.Partitioned.order g in
  let gp = Sddm.Graph.permute g perm in
  let dp = Array.init n (fun k -> d.(perm.(k))) in
  (gp, dp)

(* A random SDDM graph with islands and isolated vertices, laid out
   island by island in a random order inside each: every island is a
   mesh of 1 to 144 vertices (1 is an isolated vertex), weights 10^U(-2,2),
   a few chords, and one to four grounded vertices. *)
let islands seed =
  let rng = Rng.create seed in
  let edges = ref [] and grounds = ref [] in
  let lo = ref 0 in
  for _ = 1 to 1 + Rng.int rng 6 do
    let w = 1 + Rng.int rng 12 and h = 1 + Rng.int rng 12 in
    let size = w * h in
    let at = Sparse.Perm.inverse (Sparse.Perm.random rng size) in
    let add u v =
      let w = 10.0 ** Rng.float_range rng (-2.0) 2.0 in
      edges := (!lo + at.(u), !lo + at.(v), w) :: !edges
    in
    Sddm.Graph.iter_edges (Test_util.mesh_graph w h) (fun u v _ -> add u v);
    for _ = 1 to Rng.int rng 4 do
      let u = Rng.int rng size and v = Rng.int rng size in
      if u <> v then add u v
    done;
    for _ = 0 to Rng.int rng 3 do
      let i = !lo + Rng.int rng size in
      grounds := (i, Rng.float_range rng 0.1 1.0) :: !grounds
    done;
    lo := !lo + size
  done;
  let d = Array.make !lo 0.0 in
  List.iter (fun (i, x) -> d.(i) <- d.(i) +. x) !grounds;
  (Sddm.Graph.create ~n:!lo ~edges:(Array.of_list !edges), d)

(* Randomized fill lies inside exact-Cholesky fill: by induction over the
   columns, column k's randomized neighbours are among its exact ones, and
   a sampled edge joins two of them, which exact elimination joins too. So
   the randomized factor's pattern is a subset of the exact factor's
   pattern of the same permuted matrix, whatever the ordering. *)
let prop_fill_inside_exact_fill =
  QCheck.Test.make ~name:"randomized pattern inside exact Cholesky pattern"
    ~count:40 (QCheck.int_bound 1_000_000) (fun seed ->
      let g, d = islands seed in
      let n = Array.length d in
      let col_ptr l = l.Factor.Lower.col_ptr and rows l = l.Factor.Lower.rows in
      List.for_all
        (fun order ->
          let perm = order g in
          let gp = Sddm.Graph.permute g perm in
          let dp = Array.init n (fun k -> d.(perm.(k))) in
          let exact = Factor.Chol.factorize (Sddm.Graph.to_sddm gp dp) in
          let open Sparse.Idx.Ops in
          (* mark.(i) = j while column j of the exact factor is marked *)
          let inside l =
            let ok = ref true and mark = Array.make n (-1) in
            for j = 0 to n - 1 do
              for q = (col_ptr exact).%(j) to (col_ptr exact).%(j + 1) - 1 do
                mark.((rows exact).%(q)) <- j
              done;
              for q = (col_ptr l).%(j) to (col_ptr l).%(j + 1) - 1 do
                if mark.((rows l).%(q)) <> j then ok := false
              done
            done;
            !ok
          in
          inside (Factor.Rchol.factorize ~rng:(Rng.create seed) gp ~d:dp)
          && inside (Factor.Lt_rchol.factorize ~rng:(Rng.create seed) gp ~d:dp))
        [
          Ordering.Natural.order;
          Ordering.Amd.order;
          (fun g -> Ordering.Degree_sort.order g);
          (fun g -> Ordering.Partitioned.order g);
        ])

let test_refactor_scratch_cached () =
  (* The second refactor over the same closure must not rebuild the
     diagonal or the row index (O(nnz) allocation) nor allocate a fresh
     column buffer — everything is cached on the factor and the
     updatable. *)
  let gp, dp = partitioned_mesh ~w:40 ~h:40 in
  let u = Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 13) gp ~d:dp in
  let l = Factor.Rand_chol.factor u in
  let bump () =
    Factor.Rand_chol.set_excess u 2 (Factor.Rand_chol.excess u 2 +. 0.125);
    ignore (Factor.Rand_chol.refactor u)
  in
  bump ();
  let diag_before = Factor.Lower.diag l in
  let buf_before = l.Factor.Lower.refactor_buf in
  let alloc_of f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let a2 = alloc_of bump in
  let a3 = alloc_of bump in
  Alcotest.(check bool) "diag cache not rebuilt" true
    (diag_before == Factor.Lower.diag l);
  Alcotest.(check bool) "column scratch reused" true
    (buf_before == l.Factor.Lower.refactor_buf
    && Sparse.Vec.length buf_before > 0);
  (* steady state: a warm refactor's allocation is flat, not growing —
     a reintroduced per-call cache rebuild would show as a3 >> a2 *)
  Alcotest.(check bool)
    (Printf.sprintf "steady-state allocation flat (%.0f then %.0f words)" a2
       a3)
    true
    (a3 <= (1.25 *. a2) +. 1024.0)

(* ---- the elimination against its reference (test/rand_chol_ref.ml) ----

   The flat-array elimination must reproduce the reference's factor bit
   for bit, and the reference's recorder with it. The recorder is
   internal; its one reader is [refactor], which gathers every recorded
   fill slot of a re-eliminated column by target and row and re-uses the
   stored weights of the others, so the refactored factors after the same
   edits compare the slots. *)

let bits_equal (a : Factor.Lower.t) (b : Factor.Lower.t) =
  let open Sparse.Idx.Ops in
  let n = Factor.Lower.dim a and nnz = Factor.Lower.nnz a in
  let same_idx x y len =
    let ok = ref true in
    for q = 0 to len - 1 do
      if x.%(q) <> y.%(q) then ok := false
    done;
    !ok
  in
  let same_vals x y =
    let ok = ref true in
    for q = 0 to nnz - 1 do
      if Int64.bits_of_float x.{q} <> Int64.bits_of_float y.{q} then
        ok := false
    done;
    !ok
  in
  Factor.Lower.dim b = n
  && Factor.Lower.nnz b = nnz
  && same_idx a.Factor.Lower.col_ptr b.Factor.Lower.col_ptr (n + 1)
  && same_idx a.Factor.Lower.rows b.Factor.Lower.rows nnz
  && same_vals a.Factor.Lower.vals b.Factor.Lower.vals

(* A w x h mesh (4..40 a side) with weights 10^U(-6,6) and two grounded
   vertices, behind one to three hubs, each joined to 17..60 random mesh
   vertices. The hubs come first, so in the natural order their columns
   are wide enough for the counting sort from the start; one time in two
   a hub edge carries a subnormal weight, which takes the sort's
   [Float.frexp] path. *)
let rough_grid seed =
  let rng = Rng.create seed in
  let w = 4 + Rng.int rng 37 and h = 4 + Rng.int rng 37 in
  let hubs = 1 + Rng.int rng 3 in
  let n = (w * h) + hubs in
  let weight () = 10.0 ** Rng.float_range rng (-6.0) 6.0 in
  let edges = ref [] in
  Sddm.Graph.iter_edges (Test_util.mesh_graph w h) (fun u v _ ->
      edges := (hubs + u, hubs + v, weight ()) :: !edges);
  for hub = 0 to hubs - 1 do
    for _ = 1 to 17 + Rng.int rng 44 do
      edges := (hub, hubs + Rng.int rng (w * h), weight ()) :: !edges
    done
  done;
  if Rng.bool rng then
    edges := (0, hubs + Rng.int rng (w * h), 3e-310) :: !edges;
  let d = Array.make n 0.0 in
  d.(hubs) <- 1.0;
  d.(Rng.int rng n) <- 0.5;
  (Sddm.Graph.create ~n ~edges:(Array.of_list !edges), d)

let orders =
  [
    ("natural", Ordering.Natural.order);
    ("amd", Ordering.Amd.order);
    ("alg4", fun g -> Ordering.Degree_sort.order g);
    ("partitioned", fun g -> Ordering.Partitioned.order g);
  ]

(* the library's sort and sampling, each with the reference's twin *)
let variants =
  let module R = Factor.Rand_chol in
  let module F = Rand_chol_ref in
  [
    (R.Counting_sort { buckets = 256 }, R.Shared_random,
     F.Counting_sort { buckets = 256 }, F.Shared_random);
    (R.Exact_sort, R.Per_neighbor, F.Exact_sort, F.Per_neighbor);
    (R.Counting_sort { buckets = 3 }, R.Per_neighbor,
     F.Counting_sort { buckets = 3 }, F.Per_neighbor);
    (R.No_sort, R.Shared_random, F.No_sort, F.Shared_random);
  ]

(* The same edits on both updatables: a fifth of the edges reweighted by
   a factor in [1/4, 4], looked up through [find_edge] in either
   orientation, and three vertices regrounded. *)
let edit_both ~seed g u r =
  let cg = Sddm.Graph.coalesce g in
  let rng = Rng.create (seed + 5) in
  let agree = ref true in
  for e = 0 to Sddm.Graph.n_edges cg - 1 do
    if Rng.int rng 5 = 0 then begin
      let a, b, _ = Sddm.Graph.edge cg e in
      let a, b = if Rng.bool rng then (a, b) else (b, a) in
      let f = 2.0 ** Rng.float_range rng (-2.0) 2.0 in
      match
        (Factor.Rand_chol.find_edge u a b, Rand_chol_ref.find_edge r a b)
      with
      | Some e1, Some e2 when e1 = e && e2 = e ->
        Factor.Rand_chol.set_edge_weight u e
          (f *. Factor.Rand_chol.edge_weight u e);
        Rand_chol_ref.set_edge_weight r e (f *. Rand_chol_ref.edge_weight r e)
      | _ -> agree := false
    end
  done;
  let n = Sddm.Graph.n_vertices g in
  for _ = 1 to 3 do
    let i = Rng.int rng n and x = Rng.float_range rng 0.1 2.0 in
    Factor.Rand_chol.set_excess u i x;
    Rand_chol_ref.set_excess r i x
  done;
  !agree

let prop_elimination_matches_reference =
  QCheck.Test.make ~name:"factor and recorder bits equal the reference"
    ~count:30
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (mesh, seed) ->
      let g, d = if mesh then rough_grid seed else islands seed in
      let n = Array.length d in
      List.for_all
        (fun (_, order) ->
          let perm = order g in
          let gp = Sddm.Graph.permute g perm in
          let dp = Array.init n (fun k -> d.(perm.(k))) in
          let rng () = Rng.create seed in
          List.for_all
            (fun (sort, sampling, rsort, rsampling) ->
              bits_equal
                (Factor.Rand_chol.factorize ~sort ~sampling ~rng:(rng ()) gp
                   ~d:dp)
                (Rand_chol_ref.factorize ~sort:rsort ~sampling:rsampling
                   ~rng:(rng ()) gp ~d:dp)
              &&
              let u =
                Factor.Rand_chol.factorize_updatable ~sort ~sampling
                  ~rng:(rng ()) gp ~d:dp
              and r =
                Rand_chol_ref.factorize_updatable ~sort:rsort
                  ~sampling:rsampling ~rng:(rng ()) gp ~d:dp
              in
              bits_equal (Factor.Rand_chol.factor u) (Rand_chol_ref.factor r)
              && edit_both ~seed gp u r
              && Factor.Rand_chol.refactor u = Rand_chol_ref.refactor r
              && bits_equal (Factor.Rand_chol.factor u)
                   (Rand_chol_ref.factor r))
            variants)
        orders)

(* ---- find_edge against a scan of the coalesced edges ---- *)

(* Every coalesced edge is found at its own index in both orientations;
   a pair the scan does not list, a vertex paired with itself and a
   vertex out of range are not. *)
let find_edge_agrees_with_scan g d =
  let u =
    Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 3) g ~d
  in
  let cg = Sddm.Graph.coalesce g in
  let n = Sddm.Graph.n_vertices g in
  let scan = Hashtbl.create 64 in
  let ok = ref true in
  for e = 0 to Sddm.Graph.n_edges cg - 1 do
    let a, b, _ = Sddm.Graph.edge cg e in
    Hashtbl.replace scan (a, b) e;
    if Factor.Rand_chol.find_edge u a b <> Some e
       || Factor.Rand_chol.find_edge u b a <> Some e
    then ok := false
  done;
  let rng = Rng.create n in
  for _ = 1 to 4 * n do
    let i = Rng.int rng n and j = Rng.int rng n in
    let expected = Hashtbl.find_opt scan (min i j, max i j) in
    if Factor.Rand_chol.find_edge u i j <> expected then ok := false
  done;
  for i = 0 to n - 1 do
    if Factor.Rand_chol.find_edge u i i <> None then ok := false
  done;
  if Factor.Rand_chol.find_edge u (-1) 0 <> None
     || Factor.Rand_chol.find_edge u 0 n <> None
  then ok := false;
  !ok

let test_find_edge_on_mesh () =
  (* a mesh with every horizontal edge doubled: the coalesced order has
     one entry per pair *)
  let w = 9 and h = 7 in
  let mesh = Test_util.mesh_graph w h in
  let edges = ref [] in
  Sddm.Graph.iter_edges mesh (fun u v x ->
      edges := (v, u, x) :: (u, v, x) :: !edges;
      if v = u + 1 then edges := (u, v, 0.5) :: !edges);
  let n = w * h in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  Alcotest.(check bool) "find_edge = scan" true
    (find_edge_agrees_with_scan
       (Sddm.Graph.create ~n ~edges:(Array.of_list !edges))
       d)

let prop_find_edge_agrees_with_scan =
  QCheck.Test.make ~name:"find_edge agrees with a scan of the edges"
    ~count:40
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (mesh, seed) ->
      let g, d = if mesh then rough_grid seed else islands seed in
      find_edge_agrees_with_scan g d)

(* ---- allocation ---- *)

let test_factor_allocation_bound () =
  (* A factorization allocates its arrays, not per column: the edge lists
     are read in place from the graph, fills share one pool, and the
     per-column generator and locate work in place. On the 3,005-node
     grid a column costs a few minor words (float_open's boxed draw
     among them), where per-column runs, boxed generator state and a
     polymorphic locate cost 160 to 250. *)
  let p =
    (Powergrid.Suite.scale_case ~target_nodes:3_000 ()).Powergrid.Suite.build
      ()
  in
  let g = p.Sddm.Problem.graph and d = p.Sddm.Problem.d in
  List.iter
    (fun (oname, order) ->
      let perm = order g in
      let gp = Sddm.Graph.coalesce (Sddm.Graph.permute g perm) in
      let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
      let n = float_of_int (Array.length dp) in
      List.iter
        (fun (name, factorize) ->
          ignore (factorize gp dp);
          let w0 = Gc.minor_words () in
          ignore (Sys.opaque_identity (factorize gp dp));
          let per_col = (Gc.minor_words () -. w0) /. n in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s: %.1f minor words per column" name
               oname per_col)
            true (per_col <= 16.0))
        [
          ( "Lt_rchol.factorize",
            fun g d -> ignore (Factor.Lt_rchol.factorize ~rng:(Rng.create 1) g ~d) );
          ( "Rchol.factorize",
            fun g d -> ignore (Factor.Rchol.factorize ~rng:(Rng.create 1) g ~d) );
          ( "Lt_rchol.factorize_updatable",
            fun g d ->
              ignore
                (Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 1) g ~d)
          );
        ])
    [
      ("Partitioned", fun g -> Ordering.Partitioned.order g);
      ("Alg. 4", fun g -> Ordering.Degree_sort.order g);
    ]

let test_refactor_allocation_bound () =
  (* A refactor re-eliminates its closure without allocating per column:
     the weight gather writes the updatable's scratch arrays in place. A
     closure built per column and called with a float per entry cost
     about 40 minor words per column. *)
  let p =
    (Powergrid.Suite.scale_case ~target_nodes:3_000 ()).Powergrid.Suite.build
      ()
  in
  let g = p.Sddm.Problem.graph and d = p.Sddm.Problem.d in
  List.iter
    (fun (oname, order) ->
      let perm = order g in
      let gp = Sddm.Graph.permute g perm in
      let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
      let u =
        Factor.Lt_rchol.factorize_updatable ~rng:(Rng.create 1) gp ~d:dp
      in
      let m = Sddm.Graph.n_edges gp in
      let edit k =
        let e = k * (m - 1) / 10 in
        Factor.Rand_chol.set_edge_weight u e
          (1.5 *. Factor.Rand_chol.edge_weight u e);
        Factor.Rand_chol.refactor u
      in
      (* the first refactor sizes the column buffers *)
      ignore (edit 0);
      let w0 = Gc.minor_words () in
      let cols = ref 0 in
      for k = 1 to 10 do
        cols := !cols + edit k
      done;
      let per_col = (Gc.minor_words () -. w0) /. float_of_int !cols in
      Alcotest.(check bool)
        (Printf.sprintf
           "refactor under %s: %.1f minor words per column over %d columns"
           oname per_col !cols)
        true (per_col <= 4.0))
    [
      ("Partitioned", fun g -> Ordering.Partitioned.order g);
      ("Alg. 4", fun g -> Ordering.Degree_sort.order g);
    ]

let () =
  Alcotest.run "factor"
    [
      ( "lower",
        [
          Alcotest.test_case "validation" `Quick test_lower_validation;
          Alcotest.test_case "triangular solves" `Quick test_lower_solves;
          Alcotest.test_case "kernels match a dense reference" `Quick
            test_kernels_dense_reference;
          Alcotest.test_case "multiply" `Quick test_lower_multiply_roundtrip;
          Alcotest.test_case "csc roundtrip" `Quick test_lower_csc_roundtrip;
          Alcotest.test_case "precondition (identity perm)" `Quick
            test_apply_preconditioner_identity_perm;
          Alcotest.test_case "precondition (random perm)" `Quick
            test_apply_preconditioner_with_perm;
        ] );
      ( "etree",
        [
          Alcotest.test_case "arrow chain" `Quick test_etree_arrow;
          Alcotest.test_case "diagonal forest" `Quick test_etree_diagonal;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstructs A" `Quick test_chol_reconstructs;
          Alcotest.test_case "matches dense solve" `Quick
            test_chol_solve_matches_dense;
          Alcotest.test_case "rejects indefinite" `Quick test_chol_not_pd;
          Alcotest.test_case "diagonal matrix" `Quick test_chol_diag_matrix;
          Alcotest.test_case "rejects a non-square matrix" `Quick
            test_chol_rejects_non_square;
        ] );
      ( "ichol",
        [
          Alcotest.test_case "zero drop = exact" `Quick
            test_ichol_zero_drop_is_exact;
          Alcotest.test_case "drops fill" `Quick test_ichol_drops_fill;
          Alcotest.test_case "preconditions PCG" `Quick test_ichol_preconditions;
          Alcotest.test_case "rejects a non-square matrix" `Quick
            test_ichol_rejects_non_square;
        ] );
      ( "locate (Alg. 2)",
        [
          Alcotest.test_case "basic" `Quick test_locate_basic;
          Alcotest.test_case "repeated values" `Quick test_locate_repeats;
          Alcotest.test_case "locate_into rejects long prefixes" `Quick
            test_locate_into_rejects_long_prefixes;
        ]
        @ Test_util.qcheck [ prop_locate_matches_reference ] );
      ( "randomized",
        tree_exactness_cases @ star_exactness_cases
        @ [
            Alcotest.test_case "deterministic by seed" `Quick
              test_rand_chol_deterministic;
            Alcotest.test_case "singular detection" `Quick
              test_rand_chol_singular_detection;
            Alcotest.test_case "breakdown at the first zero pivot" `Quick
              test_breakdown_first_failing_column;
            Alcotest.test_case "positive diagonal" `Quick
              test_rand_chol_diag_positive;
            Alcotest.test_case "unbiasedness (E[LL^T] = A)" `Slow
              test_unbiasedness;
            Alcotest.test_case "expected clique weight" `Quick
              test_expected_clique_weight;
          ]
        @ short_d_cases @ precondition_quality_cases );
      ( "updatable",
        [
          Alcotest.test_case "matches plain factorize" `Quick
            test_updatable_matches_plain;
          Alcotest.test_case "local refactor = global recompute" `Quick
            test_updatable_local_matches_global;
          Alcotest.test_case "exact on trees after edits" `Quick
            test_updatable_exact_on_tree;
          Alcotest.test_case "preconditions the edited matrix" `Quick
            test_updatable_preconditions_after_edits;
          Alcotest.test_case "breakdown on ungrounding" `Quick
            test_updatable_breakdown_on_unground;
          Alcotest.test_case "refactor scratch cached" `Quick
            test_refactor_scratch_cached;
          Alcotest.test_case "find_edge on a mesh" `Quick
            test_find_edge_on_mesh;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "factorization allocation bound" `Quick
            test_factor_allocation_bound;
          Alcotest.test_case "refactor allocation bound" `Quick
            test_refactor_allocation_bound;
        ] );
      ( "property",
        Test_util.qcheck
          [
            prop_rand_chol_factors_random_sddm;
            prop_rand_chol_any_permutation;
            prop_fill_inside_exact_fill;
            prop_elimination_matches_reference;
            prop_find_edge_agrees_with_scan;
          ] );
    ]
