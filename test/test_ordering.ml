module Perm = Sparse.Perm

let orderings =
  [
    ("natural", Ordering.Natural.order);
    ("amd", Ordering.Amd.order);
    ("rcm", Ordering.Rcm.order);
    ("degree_sort", fun g -> Ordering.Degree_sort.order g);
    ("nested_dissection", fun g -> Ordering.Nested_dissection.order g);
    ("partitioned", fun g -> Ordering.Partitioned.order g);
  ]

let test_all_valid_on name graph =
  List.map
    (fun (oname, order) ->
      Alcotest.test_case
        (Printf.sprintf "%s valid on %s" oname name)
        `Quick
        (fun () ->
          Alcotest.(check bool) "valid permutation" true
            (Perm.is_valid (order graph))))
    orderings

let test_amd_beats_natural_mesh () =
  let g = Test_util.mesh_graph 18 18 in
  let amd_fill = Test_util.fill_count g (Ordering.Amd.order g) in
  let nat_fill = Test_util.fill_count g (Ordering.Natural.order g) in
  Alcotest.(check bool)
    (Printf.sprintf "amd fill %d < natural fill %d" amd_fill nat_fill)
    true
    (amd_fill < nat_fill)

let test_amd_beats_natural_random () =
  let g, _ = Test_util.random_sddm ~seed:301 ~n:200 ~m:600 in
  let amd_fill = Test_util.fill_count g (Ordering.Amd.order g) in
  let nat_fill = Test_util.fill_count g (Ordering.Natural.order g) in
  Alcotest.(check bool) "amd reduces fill" true (amd_fill < nat_fill)

let test_amd_tree_no_fill () =
  (* a tree ordered by AMD must factor with zero fill: leaves first *)
  let g = Test_util.path_graph 64 in
  let fill = Test_util.fill_count g (Ordering.Amd.order g) in
  (* nnz(L) for a zero-fill tree factorization: n + (n-1) edges *)
  Alcotest.(check int) "tree factors without fill" (64 + 63) fill

let test_amd_star () =
  (* star: the hub must survive until only it and one leaf remain (the
     final 2-clique can be eliminated in either order) *)
  let g = Test_util.star_graph 30 in
  let p = Ordering.Amd.order g in
  Alcotest.(check bool) "hub among last two" true (p.(29) = 0 || p.(28) = 0)

let test_rcm_bandwidth () =
  let g = Test_util.mesh_graph 15 15 in
  let bandwidth p =
    let pinv = Perm.inverse p in
    let best = ref 0 in
    Sddm.Graph.iter_edges g (fun u v _ ->
        best := max !best (abs (pinv.(u) - pinv.(v))));
    !best
  in
  let nat = bandwidth (Ordering.Natural.order g) in
  let rcm = bandwidth (Ordering.Rcm.order g) in
  Alcotest.(check bool)
    (Printf.sprintf "rcm bandwidth %d <= natural %d" rcm nat)
    true (rcm <= nat)

let test_degree_sort_ascending () =
  let g, _ = Test_util.random_sddm ~seed:303 ~n:100 ~m:300 in
  let p = Ordering.Degree_sort.order g in
  let deg = Sddm.Graph.degrees g in
  for k = 0 to 98 do
    Alcotest.(check bool) "degrees ascending" true
      (deg.(p.(k)) <= deg.(p.(k + 1)))
  done

let test_degree_sort_heavy_first () =
  (* two degree-2 chains; one has a heavy edge: its endpoints must come
     before the equal-degree light nodes *)
  let edges =
    [|
      (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0);  (* light path *)
      (4, 5, 1.0); (5, 6, 1000.0); (6, 7, 1.0);  (* heavy middle edge *)
    |]
  in
  let g = Sddm.Graph.create ~n:8 ~edges in
  (* w_avg includes the heavy edge itself (~167.5), so use a factor that
     puts the threshold between the light and heavy weights *)
  let p = Ordering.Degree_sort.order ~heavy_factor:2.0 g in
  let pos = Perm.inverse p in
  (* nodes 5 and 6 have degree 2 and touch the heavy edge; 1, 2 have degree
     2 and do not *)
  Alcotest.(check bool) "5 before 1" true (pos.(5) < pos.(1));
  Alcotest.(check bool) "6 before 2" true (pos.(6) < pos.(2))

let test_degree_sort_disable_heavy () =
  let g, _ = Test_util.random_sddm ~seed:307 ~n:80 ~m:240 in
  let p = Ordering.Degree_sort.order ~heavy_factor:infinity g in
  Alcotest.(check bool) "valid without promotion" true (Perm.is_valid p);
  (* with promotion disabled, equal-degree nodes stay in index order *)
  let deg = Sddm.Graph.degrees g in
  let ok = ref true in
  for k = 0 to 78 do
    if deg.(p.(k)) = deg.(p.(k + 1)) && p.(k) > p.(k + 1) then ok := false
  done;
  Alcotest.(check bool) "stable within degree class" true !ok

let test_amd_csc_matches_graph () =
  let g, d = Test_util.random_sddm ~seed:311 ~n:60 ~m:150 in
  let a = Sddm.Graph.to_sddm g d in
  let p1 = Ordering.Amd.order (Sddm.Graph.coalesce g) in
  let p2 = Ordering.Amd.order_csc a in
  Alcotest.(check bool) "csc variant valid" true (Perm.is_valid p2);
  (* both should give similar fill quality (identical adjacency) *)
  let f1 = Test_util.fill_count g p1 and f2 = Test_util.fill_count g p2 in
  Alcotest.(check bool)
    (Printf.sprintf "similar quality (%d vs %d)" f1 f2)
    true
    (float_of_int (abs (f1 - f2)) < 0.2 *. float_of_int (max f1 f2))

let test_amd_handles_disconnected () =
  let g =
    Sddm.Graph.create ~n:9
      ~edges:[| (0, 1, 1.0); (1, 2, 1.0); (4, 5, 1.0); (5, 6, 1.0) |]
  in
  Alcotest.(check bool) "valid on forest with isolated vertices" true
    (Perm.is_valid (Ordering.Amd.order g))

let test_amd_dense_block () =
  (* complete graph: any order works, permutation must still be valid and
     supervariable merging must fire (all vertices indistinguishable) *)
  let n = 12 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j, 1.0) :: !edges
    done
  done;
  let g = Sddm.Graph.create ~n ~edges:(Array.of_list !edges) in
  Alcotest.(check bool) "valid on clique" true
    (Perm.is_valid (Ordering.Amd.order g))

let test_nd_beats_natural_on_mesh () =
  let g = Test_util.mesh_graph 24 24 in
  let nd_fill = Test_util.fill_count g (Ordering.Nested_dissection.order g) in
  let nat_fill = Test_util.fill_count g (Ordering.Natural.order g) in
  Alcotest.(check bool)
    (Printf.sprintf "nd fill %d < natural %d" nd_fill nat_fill)
    true (nd_fill < nat_fill)

let test_nd_leaf_size_extremes () =
  let g = Test_util.mesh_graph 12 12 in
  List.iter
    (fun leaf_size ->
      Alcotest.(check bool)
        (Printf.sprintf "valid at leaf_size %d" leaf_size)
        true
        (Perm.is_valid (Ordering.Nested_dissection.order ~leaf_size g)))
    [ 2; 16; 1000 ]

let test_nd_disconnected () =
  let g =
    Sddm.Graph.create ~n:40
      ~edges:(Array.init 19 (fun i -> (2 * i, (2 * i) + 1, 1.0)))
  in
  Alcotest.(check bool) "valid on matching graph" true
    (Perm.is_valid (Ordering.Nested_dissection.order ~leaf_size:4 g))

(* ---- partitioned against its reference (test/partitioned_ref.ml) ----

   The flat-array ordering must return the reference's permutation on
   every input. Below 1024 vertices no dissection runs, so the graphs are
   larger than that. *)

let same_as_reference ?heavy_factor g =
  Ordering.Partitioned.order ?heavy_factor g
  = Partitioned_ref.order ?heavy_factor g

(* [order_with_blocks] returns [order]'s permutation, and its leaf blocks
   are ascending, disjoint, nonempty position ranges that no edge of the
   permuted graph joins to an earlier position (backward-closed): the
   premise of the factorization's parallel schedule. *)
let blocks_backward_closed ?heavy_factor g =
  let perm, blocks = Ordering.Partitioned.order_with_blocks ?heavy_factor g in
  let n = Sddm.Graph.n_vertices g in
  let pos = Perm.inverse perm in
  let block_lo = Array.make n (-1) in
  let ok = ref (perm = Ordering.Partitioned.order ?heavy_factor g) in
  let next = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      if lo < !next || hi <= lo || hi > n then ok := false
      else Array.fill block_lo lo (hi - lo) lo;
      next := hi)
    blocks;
  Sddm.Graph.iter_edges g (fun u v _ ->
      let a = min pos.(u) pos.(v) and b = max pos.(u) pos.(v) in
      if block_lo.(b) > a then ok := false);
  !ok

(* A mesh of 33..80 vertices a side with weights log-uniform over
   1e-8 .. 1e8. Dropped edges leave islands and isolated vertices (vertex
   0 among them one time in four); chords make lopsided level cuts. *)
let rough_mesh seed =
  let rng = Rng.create seed in
  let w = 33 + Rng.int rng 48 and h = 33 + Rng.int rng 48 in
  let drop = [| 0.0; 0.05; 0.3; 0.6 |].(Rng.int rng 4) in
  let chords = [| 0; 3; 60 |].(Rng.int rng 3) in
  let isolate_0 = Rng.int rng 4 = 0 in
  let n = w * h in
  let weight () = 10.0 ** Rng.float_range rng (-8.0) 8.0 in
  let edges = ref [] in
  let add u v =
    if Rng.float rng >= drop && not (isolate_0 && (u = 0 || v = 0)) then
      edges := (u, v, weight ()) :: !edges
  in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let i = (y * w) + x in
      if x + 1 < w then add i (i + 1);
      if y + 1 < h then add i (i + w)
    done
  done;
  for _ = 1 to chords do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then add u v
  done;
  Sddm.Graph.create ~n ~edges:(Array.of_list !edges)

(* a random graph of 1025..4000 vertices, or a rough mesh *)
let partitioned_input random seed =
  if random then begin
    let rng = Rng.create seed in
    let n = 1025 + Rng.int rng 2976 in
    fst (Test_util.random_sddm ~seed ~n ~m:(n / 2 + Rng.int rng (2 * n)))
  end
  else rough_mesh seed

let heavy_factors = [| 10.0; 2.0; infinity |]

let prop_partitioned_matches_reference =
  QCheck.Test.make ~name:"partitioned equals its reference" ~count:40
    QCheck.(triple bool (int_bound 1_000_000) (int_bound 2))
    (fun (random, seed, hf) ->
      same_as_reference ~heavy_factor:heavy_factors.(hf)
        (partitioned_input random seed))

let prop_partitioned_blocks_backward_closed =
  QCheck.Test.make ~name:"partitioned leaf blocks are backward-closed"
    ~count:40
    QCheck.(triple bool (int_bound 1_000_000) (int_bound 2))
    (fun (random, seed, hf) ->
      blocks_backward_closed ~heavy_factor:heavy_factors.(hf)
        (partitioned_input random seed))

let test_partitioned_edgeless () =
  (* the first BFS reaches nothing, so the whole set is one block *)
  let g = Sddm.Graph.create ~n:2000 ~edges:[||] in
  Alcotest.(check bool) "same as reference" true (same_as_reference g);
  Alcotest.(check (array (pair int int))) "one leaf block" [| (0, 2000) |]
    (snd (Ordering.Partitioned.order_with_blocks g))

let test_partitioned_star () =
  let g = Test_util.star_graph 1501 in
  Alcotest.(check bool) "same as reference" true (same_as_reference g)

let test_partitioned_threshold_ties () =
  (* A float sum's rounding depends on its order, so a block's average
     weight must be summed in the reference's order. On a path whose last
     edge is the heaviest, heavy factors right at that edge's threshold,
     for the sum taken either way round, flip the last vertex's heavy flag
     and so its place in the degree-1 class. *)
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let n = 200 in
    let ws =
      Array.init (n - 1) (fun i ->
          if i = n - 2 then 5.0 else 1.0 +. Rng.float rng)
    in
    let g =
      Sddm.Graph.create ~n ~edges:(Array.mapi (fun i w -> (i, i + 1, w)) ws)
    in
    let mean ws = Array.fold_left ( +. ) 0.0 ws /. float_of_int (n - 1) in
    let backwards = Array.init (n - 1) (fun i -> ws.(n - 2 - i)) in
    List.iter
      (fun w_avg ->
        let at = 5.0 /. w_avg in
        List.iter
          (fun heavy_factor ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d, heavy factor %h" seed heavy_factor)
              true
              (same_as_reference ~heavy_factor g))
          [ Float.pred at; at; Float.succ at ])
      [ mean ws; mean backwards ]
  done

(* A suite case's graph, built once for both of its tests and dropped
   when the next case's is built *)
let suite_graph =
  let last = ref None in
  fun (c : Powergrid.Suite.case) ->
    match !last with
    | Some (id, g) when id = c.id -> g
    | _ ->
      last := None;
      let g = (c.build ()).Sddm.Problem.graph in
      last := Some (c.id, g);
      g

let test_partitioned_suite =
  List.concat_map
    (fun (c : Powergrid.Suite.case) ->
      [
        Alcotest.test_case ("same as reference on " ^ c.id) `Quick (fun () ->
            Alcotest.(check bool) "same permutation" true
              (same_as_reference (suite_graph c)));
        Alcotest.test_case ("leaf blocks backward-closed on " ^ c.id) `Quick
          (fun () ->
            Alcotest.(check bool) "backward-closed" true
              (blocks_backward_closed (suite_graph c)));
      ])
    (Array.to_list (Powergrid.Suite.all_cases ~scale:0.3 ()))

let prop_all_orderings_valid =
  QCheck.Test.make ~name:"every ordering is a valid permutation" ~count:60
    QCheck.(triple (int_bound 10000) (int_range 2 40) (int_bound 100))
    (fun (seed, n, m) ->
      let g, _ = Test_util.random_sddm ~seed ~n ~m:(m + 1) in
      List.for_all (fun (_, order) -> Perm.is_valid (order g)) orderings)

let prop_amd_not_worse_than_natural =
  QCheck.Test.make
    ~name:"amd fill <= 1.5x natural fill (quality guardrail)" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 20 80))
    (fun (seed, n) ->
      let g, _ = Test_util.random_sddm ~seed ~n ~m:(3 * n) in
      let amd_fill = Test_util.fill_count g (Ordering.Amd.order g) in
      let nat_fill = Test_util.fill_count g (Ordering.Natural.order g) in
      float_of_int amd_fill <= 1.5 *. float_of_int nat_fill)

let () =
  let mesh = Test_util.mesh_graph 10 10 in
  let star = Test_util.star_graph 20 in
  let path = Test_util.path_graph 30 in
  Alcotest.run "ordering"
    [
      ( "validity",
        test_all_valid_on "mesh" mesh
        @ test_all_valid_on "star" star
        @ test_all_valid_on "path" path );
      ( "amd",
        [
          Alcotest.test_case "beats natural (mesh)" `Quick
            test_amd_beats_natural_mesh;
          Alcotest.test_case "beats natural (random)" `Quick
            test_amd_beats_natural_random;
          Alcotest.test_case "zero fill on trees" `Quick test_amd_tree_no_fill;
          Alcotest.test_case "star hub last" `Quick test_amd_star;
          Alcotest.test_case "csc variant" `Quick test_amd_csc_matches_graph;
          Alcotest.test_case "disconnected input" `Quick
            test_amd_handles_disconnected;
          Alcotest.test_case "dense block" `Quick test_amd_dense_block;
        ] );
      ( "rcm",
        [ Alcotest.test_case "reduces bandwidth" `Quick test_rcm_bandwidth ] );
      ( "nested-dissection",
        [
          Alcotest.test_case "beats natural on mesh" `Quick
            test_nd_beats_natural_on_mesh;
          Alcotest.test_case "leaf size extremes" `Quick
            test_nd_leaf_size_extremes;
          Alcotest.test_case "disconnected input" `Quick test_nd_disconnected;
        ] );
      ( "degree-sort (Alg. 4)",
        [
          Alcotest.test_case "degrees ascending" `Quick
            test_degree_sort_ascending;
          Alcotest.test_case "heavy-edge promotion" `Quick
            test_degree_sort_heavy_first;
          Alcotest.test_case "promotion disabled" `Quick
            test_degree_sort_disable_heavy;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "same as reference, edgeless" `Quick
            test_partitioned_edgeless;
          Alcotest.test_case "same as reference, star" `Quick
            test_partitioned_star;
          Alcotest.test_case "same as reference at threshold ties" `Quick
            test_partitioned_threshold_ties;
        ]
        @ test_partitioned_suite );
      ( "property",
        Test_util.qcheck
          [
            prop_all_orderings_valid;
            prop_amd_not_worse_than_natural;
            prop_partitioned_matches_reference;
            prop_partitioned_blocks_backward_closed;
          ] );
    ]
