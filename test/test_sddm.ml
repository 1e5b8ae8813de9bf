module G = Sddm.Graph
module Csc = Sparse.Csc

(* The Laplacian L_G: the SDDM matrix of an all-zero excess. *)
let laplacian g = G.to_sddm g (Array.make (G.n_vertices g) 0.0)

let test_create_validation () =
  Alcotest.check_raises "self loop rejected" (Invalid_argument "Graph: self loop")
    (fun () -> ignore (G.create ~n:3 ~edges:[| (1, 1, 1.0) |]));
  Alcotest.check_raises "bad weight rejected"
    (Invalid_argument "Graph: nonpositive weight") (fun () ->
      ignore (G.create ~n:3 ~edges:[| (0, 1, 0.0) |]));
  Alcotest.check_raises "oob rejected"
    (Invalid_argument "Graph: vertex out of range") (fun () ->
      ignore (G.create ~n:3 ~edges:[| (0, 3, 1.0) |]))

let test_edge_normalized () =
  let g = G.create ~n:4 ~edges:[| (3, 1, 2.5) |] in
  let u, v, w = G.edge g 0 in
  Alcotest.(check int) "u < v" 1 u;
  Alcotest.(check int) "v" 3 v;
  Test_util.check_float "w" 2.5 w

let test_coalesce () =
  let g = G.create ~n:3 ~edges:[| (0, 1, 1.0); (1, 0, 2.0); (1, 2, 3.0) |] in
  let c = G.coalesce g in
  Alcotest.(check int) "merged edges" 2 (G.n_edges c);
  let found = ref 0.0 in
  G.iter_edges c (fun u v w -> if u = 0 && v = 1 then found := w);
  Test_util.check_float "weights summed" 3.0 !found

let test_degrees_neighbors () =
  let g = Test_util.star_graph 6 in
  Alcotest.(check int) "hub degree" 5 (G.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (G.degree g 3);
  let seen = ref [] in
  G.iter_neighbors g 0 (fun v w -> seen := (v, w) :: !seen);
  Alcotest.(check int) "hub sees all leaves" 5 (List.length !seen)

let test_adjacency_arrays () =
  let g = G.create ~n:4 ~edges:[| (2, 0, 1.5); (0, 1, 1.0); (1, 0, 2.0) |] in
  let { G.ptr; nbr; wgt } = G.adjacency g in
  Alcotest.(check (array int)) "row pointers" [| 0; 2; 3; 4; 4 |] ptr;
  for u = 0 to 3 do
    let seen = ref [] in
    G.iter_neighbors g u (fun v w -> seen := (v, w) :: !seen);
    let rows = ref [] in
    for k = ptr.(u) to ptr.(u + 1) - 1 do
      rows := (nbr.(k), wgt.(k)) :: !rows
    done;
    Alcotest.(check (list (pair int (float 0.0))))
      (Printf.sprintf "row %d is iter_neighbors" u)
      !seen !rows
  done;
  Alcotest.(check bool) "one shared cache" true (G.adjacency g == G.adjacency g)

let test_weight_stats () =
  let g = G.create ~n:3 ~edges:[| (0, 1, 1.0); (1, 2, 3.0) |] in
  Test_util.check_float "average" 2.0 (G.average_weight g);
  Test_util.check_float "total" 4.0 (G.total_weight g);
  let mw = G.max_incident_weight g in
  Alcotest.(check (array (float 0.0))) "max incident" [| 1.0; 3.0; 3.0 |] mw

let test_components () =
  let g =
    G.create ~n:6 ~edges:[| (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0) |]
  in
  let labels, c = G.connected_components g in
  Alcotest.(check int) "three components" 3 c;
  Alcotest.(check bool) "0~2 same" true (labels.(0) = labels.(2));
  Alcotest.(check bool) "3~4 same" true (labels.(3) = labels.(4));
  Alcotest.(check bool) "5 isolated" true
    (labels.(5) <> labels.(0) && labels.(5) <> labels.(3))

(* Caller-input checks raise Invalid_argument, so building with -noassert
   cannot delete them. *)
let raises_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let test_of_arrays_lengths () =
  raises_invalid_arg "short vs" (fun () ->
      G.of_arrays ~n:3 ~us:[| 0; 1 |] ~vs:[| 1 |] ~ws:[| 1.0; 1.0 |]);
  raises_invalid_arg "short ws" (fun () ->
      G.of_arrays ~n:3 ~us:[| 0; 1 |] ~vs:[| 1; 2 |] ~ws:[| 1.0 |])

let test_to_sddm_d_length () =
  let g = Test_util.path_graph 3 in
  raises_invalid_arg "short d" (fun () -> G.to_sddm g [| 1.0; 0.0 |]);
  raises_invalid_arg "long d" (fun () -> G.to_sddm g [| 1.0; 0.0; 0.0; 0.0 |])

let test_to_sddm_d_sign () =
  let g = Test_util.path_graph 3 in
  raises_invalid_arg "negative d" (fun () ->
      G.to_sddm g [| 1.0; -1e-300; 0.0 |]);
  raises_invalid_arg "NaN d" (fun () -> G.to_sddm g [| 1.0; 0.0; Float.nan |])

let test_permute_checks () =
  let g = Test_util.path_graph 3 in
  raises_invalid_arg "short permutation" (fun () -> G.permute g [| 1; 0 |]);
  raises_invalid_arg "long permutation" (fun () ->
      G.permute g [| 1; 0; 2; 3 |]);
  raises_invalid_arg "repeated index" (fun () -> G.permute g [| 1; 1; 2 |]);
  raises_invalid_arg "index out of range" (fun () -> G.permute g [| 0; 1; 3 |])

let test_laplacian_rowsums () =
  let g, _ = Test_util.random_sddm ~seed:3 ~n:12 ~m:30 in
  let l = laplacian g in
  let ones = Sparse.Vec.make 12 1.0 in
  let y = Csc.spmv l ones in
  Alcotest.(check bool) "L 1 = 0" true (Sparse.Vec.norm_inf y < 1e-12)

let test_to_of_sddm_roundtrip () =
  let g, d = Test_util.random_sddm ~seed:5 ~n:15 ~m:40 in
  let a = G.to_sddm g d in
  let g', d' = G.of_sddm a in
  Alcotest.(check (array (float 1e-12))) "d roundtrip" d d';
  Test_util.check_float "graph roundtrip" 0.0
    (Csc.frobenius_diff (laplacian (G.coalesce g)) (laplacian g'))

let test_is_sddm () =
  let g, d = Test_util.random_sddm ~seed:7 ~n:10 ~m:20 in
  Alcotest.(check bool) "valid" true (G.is_sddm (G.to_sddm g d));
  let bad = Csc.of_dense [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |] in
  Alcotest.(check bool) "positive off-diag rejected" false (G.is_sddm bad);
  let not_dd = Csc.of_dense [| [| 1.0; -2.0 |]; [| -2.0; 1.0 |] |] in
  Alcotest.(check bool) "not diagonally dominant" false (G.is_sddm not_dd);
  let asym = Csc.of_dense [| [| 2.0; -1.0 |]; [| 0.0; 2.0 |] |] in
  Alcotest.(check bool) "asymmetric rejected" false (G.is_sddm asym)

let test_permute_preserves_laplacian () =
  let g, _ = Test_util.random_sddm ~seed:11 ~n:14 ~m:30 in
  let rng = Rng.create 13 in
  let p = Sparse.Perm.random rng 14 in
  let gp = G.permute g p in
  let l = laplacian g and lp = laplacian gp in
  Test_util.check_float "permuted laplacian" 0.0
    (Csc.frobenius_diff (Csc.permute_sym l p) lp)

let test_problem_residual () =
  let p = Test_util.random_problem ~seed:17 ~n:12 ~m:25 in
  let n = Sddm.Problem.n p in
  Alcotest.(check int) "n" 12 n;
  (* residual of the exact solution is ~0 *)
  let dense = Csc.to_dense p.Sddm.Problem.a in
  let x = Test_util.dense_solve dense (Test_util.arr p.Sddm.Problem.b) in
  Alcotest.(check bool) "exact solution residual" true
    (Sddm.Problem.residual_norm p (Test_util.vec x) < 1e-10);
  (* residual of zero is 1 *)
  Test_util.check_float ~eps:1e-12 "zero residual" 1.0
    (Sddm.Problem.residual_norm p (Sparse.Vec.create n))

let test_problem_of_matrix_rejects_non_sddm () =
  let bad = Csc.of_dense [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |] in
  Alcotest.(check bool) "rejected" true
    (match Sddm.Problem.of_matrix ~name:"bad" ~a:bad ~b:(Test_util.vec [| 1.0; 1.0 |]) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let prop_sddm_roundtrip =
  QCheck.Test.make ~name:"to_sddm . of_sddm = id" ~count:100
    QCheck.(triple (int_bound 10000) (int_range 2 25) (int_bound 60))
    (fun (seed, n, m) ->
      let g, d = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      let a = G.to_sddm g d in
      let g', d' = G.of_sddm a in
      let a' = G.to_sddm g' d' in
      Csc.frobenius_diff a a' < 1e-10)

let prop_laplacian_psd_proxy =
  QCheck.Test.make ~name:"x^T L x >= 0 (Laplacian PSD)" ~count:100
    QCheck.(triple (int_bound 10000) (int_range 2 20) (int_bound 50))
    (fun (seed, n, m) ->
      let g, _ = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      let l = laplacian g in
      let rng = Rng.create (seed + 99) in
      let x = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
      Sparse.Vec.dot x (Csc.spmv l x) >= -1e-10)

let prop_coalesce_idempotent =
  QCheck.Test.make ~name:"coalesce is idempotent" ~count:100
    QCheck.(triple (int_bound 10000) (int_range 2 30) (int_bound 80))
    (fun (seed, n, m) ->
      let g, _ = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      let c1 = G.coalesce g in
      let c2 = G.coalesce c1 in
      G.n_edges c1 = G.n_edges c2
      && Csc.frobenius_diff (laplacian c1) (laplacian c2) = 0.0)

(* Reference coalesce: a stable sort of the edge ids by (u, v), then each
   run summed in input order. *)
let reference_coalesce g =
  let sorted = Array.init (G.n_edges g) (G.edge g) in
  Array.stable_sort
    (fun (u, v, _) (u', v', _) -> compare (u, v) (u', v'))
    sorted;
  let out = ref [] in
  Array.iter
    (fun (u, v, w) ->
      match !out with
      | (u', v', acc) :: rest when u = u' && v = v' ->
        out := (u, v, acc +. w) :: rest
      | l -> out := (u, v, w) :: l)
    sorted;
  Array.of_list (List.rev !out)

(* Multigraphs with one to four copies of each pair, in shuffled order and
   either orientation, and weights spread over six decades so that the
   order in which copies are summed shows in the bits. *)
let random_multigraph ~rng ~n ~pairs =
  let edges = ref [] in
  for _ = 0 to pairs do
    let u = Rng.int rng n in
    let v = (u + 1 + Rng.int rng (n - 1)) mod n in
    for _ = 0 to Rng.int rng 4 do
      let w = 10.0 ** ((6.0 *. Rng.float rng) -. 3.0) in
      edges := (if Rng.bool rng then (u, v, w) else (v, u, w)) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  Rng.shuffle rng edges;
  G.create ~n ~edges

let same_edges got want =
  Array.length got = Array.length want
  && Array.for_all2
       (fun (u, v, w) (u', v', w') ->
         u = u' && v = v' && Int64.bits_of_float w = Int64.bits_of_float w')
       got want

let edges_of g = Array.init (G.n_edges g) (G.edge g)

let prop_coalesce_matches_reference =
  QCheck.Test.make ~name:"coalesce matches stable sort + in-order sums"
    ~count:200
    QCheck.(triple (int_bound 10000) (int_bound 28) (int_bound 60))
    (fun (seed, n_extra, pairs) ->
      (* QCheck shrinks an [int_range] towards 0, below its range *)
      let n = n_extra + 2 in
      let g = random_multigraph ~rng:(Rng.create seed) ~n ~pairs in
      let got = edges_of (G.coalesce g) in
      let key (u, v, _) = (u, v) in
      let ordered i e =
        let u, v = key e in
        u < v && (i = 0 || compare (key got.(i - 1)) (u, v) < 0)
      in
      Array.for_all Fun.id (Array.mapi ordered got)
      && same_edges got (reference_coalesce g))

(* [permute] returns the coalesced graph of the relabelled edges, edge for
   edge and bit for bit, already flagged so that [coalesce] keeps it. *)
let prop_permute_is_coalesced =
  QCheck.Test.make ~name:"permute = coalesce of the relabelled edges"
    ~count:200
    QCheck.(triple (int_bound 10000) (int_bound 28) (int_bound 60))
    (fun (seed, n_extra, pairs) ->
      let n = n_extra + 2 in
      let rng = Rng.create seed in
      let g = random_multigraph ~rng ~n ~pairs in
      let p = Sparse.Perm.random rng n in
      let pinv = Sparse.Perm.inverse p in
      let relabelled =
        G.create ~n
          ~edges:
            (Array.map (fun (u, v, w) -> (pinv.(u), pinv.(v), w)) (edges_of g))
      in
      let gp = G.permute g p in
      same_edges (edges_of gp) (edges_of (G.coalesce relabelled))
      && G.coalesce gp == gp)

(* Dense reference assembly: stamp the coalesced edges in edge order,
   then add the excess, each entry its own running sum. *)
let dense_sddm g d =
  let n = G.n_vertices g in
  let a = Array.make_matrix n n 0.0 in
  G.iter_edges (G.coalesce g) (fun u v w ->
      a.(u).(u) <- a.(u).(u) +. w;
      a.(v).(v) <- a.(v).(v) +. w;
      a.(u).(v) <- a.(u).(v) -. w;
      a.(v).(u) <- a.(v).(u) -. w);
  Array.iteri (fun i x -> a.(i).(i) <- a.(i).(i) +. x) d;
  a

(* Multigraphs whose vertices are spread over [n + isolated] labels, so
   that edgeless vertices sit anywhere, with an excess that is 0 at about
   half of the vertices. *)
let prop_to_sddm_matches_dense =
  QCheck.Test.make ~name:"to_sddm = dense stamping, bit for bit" ~count:200
    QCheck.(
      quad (int_bound 10000) (int_bound 28) (int_bound 60) (int_bound 6))
    (fun (seed, n_extra, pairs, isolated) ->
      let rng = Rng.create seed in
      let n = n_extra + 2 in
      let total = n + isolated in
      let label = Sparse.Perm.random rng total in
      let g =
        G.create ~n:total
          ~edges:
            (Array.map
               (fun (u, v, w) -> (label.(u), label.(v), w))
               (edges_of (random_multigraph ~rng ~n ~pairs)))
      in
      let d =
        Array.init total (fun _ ->
            if Rng.bool rng then 0.0 else 10.0 ** ((6.0 *. Rng.float rng) -. 3.0))
      in
      let a = G.to_sddm g d in
      let { Csc.n_rows; n_cols; col_ptr; row_idx; values } = a in
      ignore (Csc.of_raw ~n_rows ~n_cols ~col_ptr ~row_idx ~values);
      let want = dense_sddm g d in
      let bits = Int64.bits_of_float in
      let column j =
        let stored = ref [] in
        Csc.iter_col a j (fun i x -> stored := (i, bits x) :: !stored);
        List.rev !stored
      in
      let expected j =
        List.filter_map
          (fun i ->
            if i = j || want.(i).(j) <> 0.0 then Some (i, bits want.(i).(j))
            else None)
          (List.init total Fun.id)
      in
      n_rows = total && n_cols = total
      && List.for_all (fun j -> column j = expected j) (List.init total Fun.id))

let prop_permute_involution =
  QCheck.Test.make ~name:"permute by p then inverse p is identity" ~count:100
    QCheck.(pair (int_bound 10000) (int_range 2 40))
    (fun (seed, n) ->
      let g, _ = Test_util.random_sddm ~seed ~n ~m:(3 * n) in
      let rng = Rng.create (seed + 1) in
      let p = Sparse.Perm.random rng n in
      let back = G.permute (G.permute g p) (Sparse.Perm.inverse p) in
      Csc.frobenius_diff
        (laplacian (G.coalesce g))
        (laplacian (G.coalesce back))
      < 1e-12)

let prop_degrees_sum_twice_edges =
  QCheck.Test.make ~name:"sum of degrees = 2|E|" ~count:100
    QCheck.(triple (int_bound 10000) (int_range 2 40) (int_bound 120))
    (fun (seed, n, m) ->
      let g, _ = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      let g = G.coalesce g in
      Array.fold_left ( + ) 0 (G.degrees g) = 2 * G.n_edges g)

(* ---- the edit state ---- *)

module E = Sddm.Edit

(* name, graph, d, b and every stored entry of A, bit for bit *)
let same_problem (p : Sddm.Problem.t) (q : Sddm.Problem.t) =
  let bits = Array.map Int64.bits_of_float in
  let edges g = List.init (G.n_edges g) (G.edge g) in
  let entries (a : Csc.t) =
    ( Sparse.Idx.to_array a.Csc.col_ptr,
      Sparse.Idx.to_array a.Csc.row_idx,
      bits (Sparse.Vec.to_array a.Csc.values) )
  in
  p.name = q.name
  && G.n_vertices p.graph = G.n_vertices q.graph
  && List.for_all2
       (fun (u, v, w) (u', v', w') ->
         u = u' && v = v' && Int64.bits_of_float w = Int64.bits_of_float w')
       (edges p.graph) (edges q.graph)
  && bits p.d = bits q.d
  && bits (Sparse.Vec.to_array p.b) = bits (Sparse.Vec.to_array q.b)
  && entries p.a = entries q.a

(* An edit state starts from the coalesced graph's assembly, not from a
   copy of the caller's matrix: on a suite grid, and on a Matrix Market
   style problem whose diagonal was summed in another order than
   [to_sddm] sums it. The caller's problem is never written. *)
let test_edit_first_problem_is_fresh () =
  let suite =
    (Powergrid.Suite.find ~scale:0.05 "pg01").Powergrid.Suite.build ()
  in
  let g = Test_util.random_graph ~seed:71 ~n:40 ~m:90 in
  let n = G.n_vertices g in
  let dense = Array.make_matrix n n 0.0 in
  for e = G.n_edges g - 1 downto 0 do
    let u, v, w = G.edge g e in
    dense.(u).(v) <- -.w;
    dense.(v).(u) <- -.w;
    dense.(u).(u) <- dense.(u).(u) +. w;
    dense.(v).(v) <- dense.(v).(v) +. w
  done;
  dense.(0).(0) <- dense.(0).(0) +. 0.7;
  let matrix =
    Sddm.Problem.of_matrix ~name:"reverse-stamped" ~a:(Csc.of_dense dense)
      ~b:(Sparse.Vec.init n (fun i -> float_of_int (i mod 5) -. 2.0))
  in
  List.iter
    (fun (p : Sddm.Problem.t) ->
      let before = Sparse.Vec.copy p.a.Csc.values in
      let st = E.of_problem p in
      Alcotest.(check bool)
        (p.name ^ ": problem = fresh_problem, bit for bit")
        true
        (same_problem (E.problem st) (E.fresh_problem st));
      let u, v, _ = G.edge (G.coalesce p.graph) 0 in
      ignore
        (E.apply_all st
           [
             E.Scale_conductance { u; v; factor = 2.0 };
             E.Set_excess { node = v; siemens = 0.25 };
           ]);
      Alcotest.(check bool) (p.name ^ ": caller's matrix untouched") true
        (Sparse.Vec.max_abs_diff before p.a.Csc.values = 0.0))
    [ suite; matrix ]

(* On a 4x4 mesh grounded at vertex 0, (u, v) is the first coalesced edge
   and (0, 15) a pair the mesh does not join. *)
let edit_mesh () =
  let g = Test_util.mesh_graph 4 4 in
  let d = Array.init 16 (fun i -> if i = 0 then 1.0 else 0.0) in
  let p =
    Sddm.Problem.of_graph ~name:"mesh" ~graph:g ~d
      ~b:(Sparse.Vec.init 16 (fun i -> float_of_int i))
  in
  let u, v, w = G.edge (G.coalesce g) 0 in
  (E.of_problem p, u, v, w)

(* A zeroed edge keeps its slot; once a rebuild has dropped it from the
   pattern, setting it again grows the pattern back. *)
let test_edit_zeroed_then_reset () =
  let st, u, v, w = edit_mesh () in
  let changes =
    E.apply_all st
      [
        E.Set_conductance { u; v; siemens = 0.0 };
        E.Add_resistor { u = 15; v = 0; siemens = 0.5 };
        E.Set_conductance { u = v; v = u; siemens = 2.0 };
      ]
  in
  Alcotest.(check bool) "zeroed, grown, then grown back" true
    (changes
    = [
        E.Edge_changed { u; v; from_w = w; to_w = 0.0 };
        E.Pattern_grew { u = 0; v = 15; siemens = 0.5 };
        E.Pattern_grew { u; v; siemens = 2.0 };
      ]);
  Alcotest.(check int) "two rebuilds" 2 (E.generation st);
  let p = E.problem st in
  Alcotest.(check bool) "problem = fresh_problem after the rebuild" true
    (same_problem p (E.fresh_problem st));
  Test_util.check_float "A(u,v)" (-2.0) (Csc.get p.a u v);
  Test_util.check_float "A(0,15)" (-0.5) (Csc.get p.a 0 15)

(* A grown edge is found again, in either orientation, and so are the
   edges that sort on either side of it. *)
let test_edit_grown_then_scaled () =
  let st, u, v, w = edit_mesh () in
  let last_u, last_v, last_w =
    let g = (E.problem st).graph in
    G.edge g (G.n_edges g - 1)
  in
  let changes =
    E.apply_all st
      [
        E.Add_resistor { u = 0; v = 15; siemens = 0.5 };
        E.Scale_conductance { u = 15; v = 0; factor = 3.0 };
        E.Scale_conductance { u; v; factor = 2.0 };
        E.Scale_conductance { u = last_u; v = last_v; factor = 0.5 };
      ]
  in
  Alcotest.(check bool) "grown, then scaled in place" true
    (changes
    = [
        E.Pattern_grew { u = 0; v = 15; siemens = 0.5 };
        E.Edge_changed { u = 0; v = 15; from_w = 0.5; to_w = 1.5 };
        E.Edge_changed { u; v; from_w = w; to_w = 2.0 *. w };
        E.Edge_changed
          { u = last_u; v = last_v; from_w = last_w; to_w = 0.5 *. last_w };
      ]);
  Test_util.check_float "A(0,15)" (-1.5) (Csc.get (E.problem st).a 15 0);
  Alcotest.check_raises "an absent edge cannot be scaled"
    (Invalid_argument "Edit scale-conductance 1-14 2: edge not present")
    (fun () ->
      ignore (E.apply st (E.Scale_conductance { u = 1; v = 14; factor = 2.0 })))

let () =
  Alcotest.run "sddm"
    [
      ( "graph",
        [
          Alcotest.test_case "creation validation" `Quick test_create_validation;
          Alcotest.test_case "edge normalization" `Quick test_edge_normalized;
          Alcotest.test_case "coalesce" `Quick test_coalesce;
          Alcotest.test_case "degrees/neighbors" `Quick test_degrees_neighbors;
          Alcotest.test_case "adjacency arrays" `Quick test_adjacency_arrays;
          Alcotest.test_case "of_arrays length check" `Quick
            test_of_arrays_lengths;
          Alcotest.test_case "weight stats" `Quick test_weight_stats;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "sddm",
        [
          Alcotest.test_case "laplacian row sums" `Quick test_laplacian_rowsums;
          Alcotest.test_case "to/of roundtrip" `Quick test_to_of_sddm_roundtrip;
          Alcotest.test_case "is_sddm" `Quick test_is_sddm;
          Alcotest.test_case "permute" `Quick test_permute_preserves_laplacian;
          Alcotest.test_case "to_sddm d length check" `Quick
            test_to_sddm_d_length;
          Alcotest.test_case "to_sddm d sign check" `Quick test_to_sddm_d_sign;
          Alcotest.test_case "permute argument checks" `Quick
            test_permute_checks;
        ] );
      ( "problem",
        [
          Alcotest.test_case "residual norm" `Quick test_problem_residual;
          Alcotest.test_case "non-SDDM rejected" `Quick
            test_problem_of_matrix_rejects_non_sddm;
        ] );
      ( "edit",
        [
          Alcotest.test_case "first problem is fresh_problem" `Quick
            test_edit_first_problem_is_fresh;
          Alcotest.test_case "zeroed then reset" `Quick
            test_edit_zeroed_then_reset;
          Alcotest.test_case "grown then scaled" `Quick
            test_edit_grown_then_scaled;
        ] );
      ( "property",
        Test_util.qcheck
          [
            prop_sddm_roundtrip;
            prop_laplacian_psd_proxy;
            prop_coalesce_idempotent;
            prop_coalesce_matches_reference;
            prop_permute_is_coalesced;
            prop_to_sddm_matches_dense;
            prop_permute_involution;
            prop_degrees_sum_twice_edges;
          ] );
    ]
