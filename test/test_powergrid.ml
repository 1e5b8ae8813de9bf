module G = Sddm.Graph

let small_spec = Powergrid.Generate.default ~nx:20 ~ny:20 ~seed:801

let test_generate_structure () =
  let p = Powergrid.Generate.generate small_spec in
  Alcotest.(check int) "node count" (Powergrid.Generate.node_count small_spec)
    (Sddm.Problem.n p);
  (* pads exist: some excess diagonal *)
  let pads =
    Array.fold_left
      (fun acc d -> if d > 0.0 then acc + 1 else acc)
      0 p.Sddm.Problem.d
  in
  Alcotest.(check bool) "has pads" true (pads > 0);
  (* loads exist *)
  Alcotest.(check bool) "has loads" true
    (let found = ref false in
     Sparse.Vec.iteri (fun _ x -> if x > 0.0 then found := true) p.Sddm.Problem.b;
     !found);
  (* connected *)
  let _, n_comp = G.connected_components p.Sddm.Problem.graph in
  Alcotest.(check int) "connected" 1 n_comp

let test_generate_deterministic () =
  let p1 = Powergrid.Generate.generate small_spec in
  let p2 = Powergrid.Generate.generate small_spec in
  Test_util.check_float "same matrix" 0.0
    (Sparse.Csc.frobenius_diff p1.Sddm.Problem.a p2.Sddm.Problem.a);
  let p3 =
    Powergrid.Generate.generate { small_spec with seed = small_spec.seed + 1 }
  in
  Alcotest.(check bool) "different seed differs" true
    (Sparse.Csc.frobenius_diff p1.Sddm.Problem.a p3.Sddm.Problem.a > 0.0)

let test_generate_chunked_equals_circuit () =
  (* [generate] builds through the chunked flat-array path; its output
     must be bit-for-bit the problem built from the materialized circuit *)
  let chunked = Powergrid.Generate.generate small_spec in
  let circuit = Powergrid.Generate.generate_circuit small_spec in
  let reference =
    Powergrid.Generate.circuit_to_problem ~name:"equiv" circuit
  in
  Test_util.check_float "same matrix" 0.0
    (Sparse.Csc.frobenius_diff chunked.Sddm.Problem.a
       reference.Sddm.Problem.a);
  Test_util.check_float "same rhs" 0.0
    (Sparse.Vec.max_abs_diff chunked.Sddm.Problem.b reference.Sddm.Problem.b)

let test_repair_stitches_minimal () =
  (* Heavy blockage forces pockets of the bottom mesh cut off from every
     via; the repair pass must stitch each pocket back exactly once. A
     redundant stitch (both endpoints already in one component) means the
     pass lost track of the main component's root — the regression here
     added O(nx*ny) spurious vias once the first pocket was stitched.
     Stitches are identified by emission order: iter_circuit documents
     that repair resistors come last, after pads and loads. *)
  let spec =
    {
      (Powergrid.Generate.default ~nx:30 ~ny:30 ~seed:801) with
      missing_fraction = 0.4;
    }
  in
  let n = Powergrid.Generate.node_count spec in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let in_repair = ref false in
  let stitches = ref 0 and redundant = ref 0 in
  Powergrid.Generate.iter_circuit spec
    ~res:(fun u v _ ->
      let ru = find u and rv = find v in
      if !in_repair then begin
        incr stitches;
        if ru = rv then incr redundant
      end;
      if ru <> rv then parent.(ru) <- rv)
    ~pad:(fun _ _ -> in_repair := true)
    ~load:(fun _ _ -> in_repair := true)
    ~cap:(fun _ _ -> ());
  Alcotest.(check bool) "repair path exercised" true (!stitches > 0);
  Alcotest.(check int) "every stitch merges two components" 0 !redundant;
  (* and the repaired grid is a single grounded component end to end *)
  let p = Powergrid.Generate.generate spec in
  let _, n_comp = G.connected_components p.Sddm.Problem.graph in
  Alcotest.(check int) "connected after repair" 1 n_comp

let test_generate_heavy_vias () =
  (* Alg. 4's premise: the grid must contain edges much heavier than
     average *)
  let p = Powergrid.Generate.generate small_spec in
  let g = p.Sddm.Problem.graph in
  let avg = G.average_weight g in
  let heavy = ref 0 in
  G.iter_edges g (fun _ _ w -> if w > 10.0 *. avg then incr heavy);
  Alcotest.(check bool) "has heavy edges" true (!heavy > 0)

let test_solution_physical () =
  (* drops are nonnegative and bounded by the supply *)
  let p = Powergrid.Generate.generate small_spec in
  let r = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) p in
  Alcotest.(check bool) "converged" true r.Powerrchol.Solver.converged;
  Sparse.Vec.iteri
    (fun _ v -> Alcotest.(check bool) "drop >= 0" true (v >= -1e-9))
    r.Powerrchol.Solver.x;
  Alcotest.(check bool) "drop below vdd" true
    (Sparse.Vec.norm_inf r.Powerrchol.Solver.x < 1.8)

(* ---- netlist ---- *)

let test_netlist_value_suffixes () =
  let nl =
    Powergrid.Netlist.parse_string
      "R1 a b 1k\nR2 b c 2.5meg\nI1 a 0 10m\nV1 vdd 0 1.8\nR3 c vdd 100\nR4 a 0 1e3\n.end\n"
  in
  Alcotest.(check int) "resistors" 4 (Powergrid.Netlist.n_resistors nl);
  Alcotest.(check int) "currents" 1 (Powergrid.Netlist.n_current_sources nl);
  Alcotest.(check int) "vsources" 1 (Powergrid.Netlist.n_voltage_sources nl)

let test_netlist_voltage_divider () =
  (* vdd --R1(1k)-- mid --R2(1k)-- gnd: v(mid) = vdd/2 *)
  let nl =
    Powergrid.Netlist.parse_string
      "V1 vdd 0 2.0\nR1 vdd mid 1k\nR2 mid 0 1k\n.end\n"
  in
  let { Powergrid.Netlist.problem; node_names; _ } =
    Powergrid.Netlist.to_problem nl
  in
  Alcotest.(check int) "one unknown" 1 (Sddm.Problem.n problem);
  Alcotest.(check string) "node name" "mid" node_names.(0);
  let x = Factor.Chol.solve problem.Sddm.Problem.a problem.Sddm.Problem.b in
  Test_util.check_float ~eps:1e-9 "divider voltage" 1.0 x.{0}

let test_netlist_current_source_sign () =
  (* single node with R to ground and a 1 A draw: v = -I*R *)
  let nl =
    Powergrid.Netlist.parse_string "R1 a 0 2.0\nI1 a 0 1.0\n.end\n"
  in
  let { Powergrid.Netlist.problem; _ } = Powergrid.Netlist.to_problem nl in
  let x = Factor.Chol.solve problem.Sddm.Problem.a problem.Sddm.Problem.b in
  Test_util.check_float ~eps:1e-9 "ohm's law" (-2.0) x.{0}

let test_netlist_errors () =
  let check_parse_error name text =
    Alcotest.(check bool) name true
      (match
         Powergrid.Netlist.to_problem (Powergrid.Netlist.parse_string text)
       with
       | _ -> false
       | exception Powergrid.Netlist.Parse_error _ -> true)
  in
  check_parse_error "floating v source" "V1 a b 1.0\nR1 a b 1.0\n.end\n";
  check_parse_error "floating subcircuit" "R1 a b 1.0\n.end\n";
  check_parse_error "nonpositive resistance" "R1 a 0 0.0\n.end\n";
  Alcotest.(check bool) "garbage line" true
    (match Powergrid.Netlist.parse_string "Q1 a b c model\n" with
     | _ -> false
     | exception Powergrid.Netlist.Parse_error _ -> true)

let test_netlist_roundtrip () =
  (* generated grid -> netlist -> parse -> solve; voltage formulation
     solution must equal vdd - drop formulation solution *)
  let spec = Powergrid.Generate.default ~nx:12 ~ny:12 ~seed:805 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let path = Filename.temp_file "powerrchol" ".sp" in
  Powergrid.Netlist.write_circuit_file path circuit;
  let nl = Powergrid.Netlist.parse_file path in
  Sys.remove path;
  let { Powergrid.Netlist.problem = volt_p; node_names; _ } =
    Powergrid.Netlist.to_problem nl
  in
  let drop_p = Powergrid.Generate.circuit_to_problem ~name:"drop" circuit in
  Alcotest.(check int) "same unknown count" (Sddm.Problem.n drop_p)
    (Sddm.Problem.n volt_p);
  let v = Factor.Chol.solve volt_p.Sddm.Problem.a volt_p.Sddm.Problem.b in
  let drop = Factor.Chol.solve drop_p.Sddm.Problem.a drop_p.Sddm.Problem.b in
  (* netlist node "n<i>" corresponds to generator node i *)
  Array.iteri
    (fun idx name ->
      let orig = int_of_string (String.sub name 1 (String.length name - 1)) in
      Alcotest.(check (float 1e-8))
        (Printf.sprintf "node %s" name)
        (circuit.Powergrid.Generate.vdd -. drop.{orig})
        v.{idx})
    node_names

(* ---- dual rail ---- *)

let test_dual_rail_structure () =
  let spec = Powergrid.Generate.default ~nx:14 ~ny:14 ~seed:821 in
  let dual = Powergrid.Generate.generate_dual spec in
  let v = dual.Powergrid.Generate.vdd_grid in
  let g = dual.Powergrid.Generate.gnd_grid in
  Alcotest.(check int) "same node count" v.Powergrid.Generate.n_nodes
    g.Powergrid.Generate.n_nodes;
  Alcotest.(check bool) "same loads" true
    (v.Powergrid.Generate.loads = g.Powergrid.Generate.loads);
  Alcotest.(check bool) "different wiring randomness" true
    (v.Powergrid.Generate.resistors <> g.Powergrid.Generate.resistors)

let test_dual_rail_netlist_roundtrip () =
  let spec = Powergrid.Generate.default ~nx:12 ~ny:12 ~seed:823 in
  let dual = Powergrid.Generate.generate_dual spec in
  let vp, gp = Powergrid.Generate.dual_to_problems dual in
  let vdrop = Factor.Chol.solve vp.Sddm.Problem.a vp.Sddm.Problem.b in
  let gdrop = Factor.Chol.solve gp.Sddm.Problem.a gp.Sddm.Problem.b in
  let path = Filename.temp_file "powerrchol_dual" ".sp" in
  Powergrid.Netlist.write_dual_circuit_file path dual;
  let nl = Powergrid.Netlist.parse_file path in
  Sys.remove path;
  let { Powergrid.Netlist.problem; node_names; _ } =
    Powergrid.Netlist.to_problem nl
  in
  Alcotest.(check int) "combined size"
    (Sddm.Problem.n vp + Sddm.Problem.n gp)
    (Sddm.Problem.n problem);
  let v = Factor.Chol.solve problem.Sddm.Problem.a problem.Sddm.Problem.b in
  let vdd = dual.Powergrid.Generate.vdd_grid.Powergrid.Generate.vdd in
  Array.iteri
    (fun idx name ->
      let node = int_of_string (String.sub name 2 (String.length name - 2)) in
      let expected =
        if name.[1] = 'V' then vdd -. vdrop.{node} else gdrop.{node}
      in
      Alcotest.(check (float 1e-9)) name expected v.{idx})
    node_names

let test_dual_rail_total_collapse () =
  (* the quantity sign-off cares about: per-load supply collapse =
     vdd drop + ground bounce at the cell; both components nonnegative *)
  let spec = Powergrid.Generate.default ~nx:16 ~ny:16 ~seed:827 in
  let dual = Powergrid.Generate.generate_dual spec in
  let vp, gp = Powergrid.Generate.dual_to_problems dual in
  let rv = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) vp in
  let rg = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) gp in
  Alcotest.(check bool) "both converge" true
    (rv.Powerrchol.Solver.converged && rg.Powerrchol.Solver.converged);
  Array.iter
    (fun (node, _) ->
      let collapse =
        rv.Powerrchol.Solver.x.{node} +. rg.Powerrchol.Solver.x.{node}
      in
      Alcotest.(check bool) "collapse >= each component" true
        (collapse >= rv.Powerrchol.Solver.x.{node} -. 1e-12
        && collapse >= rg.Powerrchol.Solver.x.{node} -. 1e-12))
    dual.Powergrid.Generate.vdd_grid.Powergrid.Generate.loads

(* ---- merge ---- *)

let test_merge_shrinks () =
  let p = Powergrid.Generate.generate small_spec in
  let m = Powergrid.Merge.merge ~factor:200.0 p in
  Alcotest.(check bool) "smaller problem" true
    (Sddm.Problem.n m.Powergrid.Merge.problem < Sddm.Problem.n p);
  Alcotest.(check bool) "merged edges counted" true
    (m.Powergrid.Merge.n_merged_edges > 0)

let test_merge_solution_close () =
  let p = Powergrid.Generate.generate small_spec in
  let exact =
    Factor.Chol.solve p.Sddm.Problem.a p.Sddm.Problem.b
  in
  let m = Powergrid.Merge.merge ~factor:200.0 p in
  let mp = m.Powergrid.Merge.problem in
  let xm = Factor.Chol.solve mp.Sddm.Problem.a mp.Sddm.Problem.b in
  let expanded = Powergrid.Merge.expand m xm in
  (* merged edges have tiny resistance: expanded solution close to exact *)
  let err = Sparse.Vec.max_abs_diff exact expanded in
  let scale = Sparse.Vec.norm_inf exact in
  Alcotest.(check bool)
    (Printf.sprintf "expansion error %.2e small vs %.2e" err scale)
    true
    (err < 0.05 *. scale)

let test_merge_no_heavy_edges () =
  (* uniform weights: nothing merges, problem unchanged in size *)
  let g = Test_util.mesh_graph 8 8 in
  let d = Array.make 64 0.0 in
  d.(0) <- 1.0;
  let b = Sparse.Vec.make 64 0.01 in
  let p = Sddm.Problem.of_graph ~name:"uniform" ~graph:g ~d ~b in
  let m = Powergrid.Merge.merge ~factor:50.0 p in
  Alcotest.(check int) "same size" 64 (Sddm.Problem.n m.Powergrid.Merge.problem);
  Alcotest.(check int) "nothing merged" 0 m.Powergrid.Merge.n_merged_edges

(* ---- ir drop ---- *)

let test_ir_drop_report () =
  let drops = Test_util.vec [| 0.01; 0.08; 0.03; 0.002; 0.06 |] in
  let r = Powergrid.Ir_drop.analyze ~budget:0.05 ~top:2 drops in
  Test_util.check_float "max" 0.08 r.Powergrid.Ir_drop.max_drop;
  Alcotest.(check int) "violations" 2 r.Powergrid.Ir_drop.violations;
  Alcotest.(check int) "top list" 2 (Array.length r.Powergrid.Ir_drop.worst_nodes);
  let worst_node, worst_v = r.Powergrid.Ir_drop.worst_nodes.(0) in
  Alcotest.(check int) "worst node" 1 worst_node;
  Test_util.check_float "worst value" 0.08 worst_v;
  (* pp does not raise *)
  ignore (Format.asprintf "%a" Powergrid.Ir_drop.pp r)

(* ---- generators ---- *)

let test_gen_graphs_connected () =
  let checks =
    [
      ("mesh2d", Powergrid.Gen_graphs.mesh2d ~nx:12 ~ny:9 ());
      ("mesh2d_9pt", Powergrid.Gen_graphs.mesh2d_9pt ~nx:10 ~ny:10 ());
      ("mesh3d", Powergrid.Gen_graphs.mesh3d ~nx:5 ~ny:6 ~nz:4 ());
      ( "power_law",
        Powergrid.Gen_graphs.power_law ~n:500 ~avg_degree:6.0 ~alpha:2.2
          ~seed:811 );
      ( "community",
        Powergrid.Gen_graphs.community ~n:400 ~communities:40 ~p_in:0.4
          ~inter_degree:2.0 ~seed:813 );
      ("geometric", Powergrid.Gen_graphs.geometric ~n:600 ~radius:0.08 ~seed:815);
    ]
  in
  List.iter
    (fun (name, g) ->
      let _, n_comp = G.connected_components g in
      Alcotest.(check int) (name ^ " connected") 1 n_comp)
    checks

let test_mesh_sizes () =
  let g = Powergrid.Gen_graphs.mesh2d ~nx:7 ~ny:5 () in
  Alcotest.(check int) "vertices" 35 (G.n_vertices g);
  Alcotest.(check int) "edges" ((6 * 5) + (7 * 4)) (G.n_edges g);
  let g3 = Powergrid.Gen_graphs.mesh3d ~nx:3 ~ny:3 ~nz:3 () in
  Alcotest.(check int) "3d vertices" 27 (G.n_vertices g3);
  Alcotest.(check int) "3d edges" (3 * 2 * 9) (G.n_edges g3)

let test_power_law_has_hubs () =
  let g =
    Powergrid.Gen_graphs.power_law ~n:2000 ~avg_degree:6.0 ~alpha:2.0
      ~seed:817
  in
  let degs = G.degrees g in
  let dmax = Array.fold_left max 0 degs in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d >> average" dmax)
    true
    (float_of_int dmax > 5.0 *. 6.0)

(* ---- suite ---- *)

let test_suite_case_lookup () =
  let c = Powergrid.Suite.find "pg01" in
  Alcotest.(check string) "analog" "ibmpg3" c.Powergrid.Suite.analog_of;
  let c2 = Powergrid.Suite.find "thupg1" in
  Alcotest.(check string) "reverse lookup" "pg07" c2.Powergrid.Suite.id;
  Alcotest.(check bool) "missing raises" true
    (match Powergrid.Suite.find "nonexistent" with
     | _ -> false
     | exception Not_found -> true)

(* A power-grid case is [Generate.generate]'s problem under the suite id,
   with its matrix bit for bit. *)
let test_suite_case_is_generated () =
  let p = (Powergrid.Suite.find "pg01").Powergrid.Suite.build () in
  let q =
    Powergrid.Generate.generate
      (Powergrid.Generate.default ~nx:110 ~ny:110 ~seed:3001)
  in
  Alcotest.(check string) "named by the suite id" "pg01" p.Sddm.Problem.name;
  let a = p.Sddm.Problem.a and a' = q.Sddm.Problem.a in
  let idx x = Sparse.Idx.to_array x in
  let bits x = Array.map Int64.bits_of_float (Sparse.Vec.to_array x) in
  Alcotest.(check (array int))
    "column pointers" (idx a'.Sparse.Csc.col_ptr) (idx a.Sparse.Csc.col_ptr);
  Alcotest.(check (array int))
    "row indices" (idx a'.Sparse.Csc.row_idx) (idx a.Sparse.Csc.row_idx);
  Alcotest.(check (array int64))
    "value bits" (bits a'.Sparse.Csc.values) (bits a.Sparse.Csc.values)

let test_suite_all_28 () =
  let all = Powergrid.Suite.all_cases () in
  Alcotest.(check int) "28 cases" 28 (Array.length all)

let test_suite_scale_case_minimal () =
  (* scale_case promises the smallest square grid meeting the node
     target; compare against a brute-force scan from below (the sqrt
     estimate alone can land above the minimum). *)
  let node_count side =
    Powergrid.Generate.node_count
      (Powergrid.Generate.default ~nx:side ~ny:side ~seed:3100)
  in
  List.iter
    (fun target ->
      let case = Powergrid.Suite.scale_case ~target_nodes:target () in
      let n = Sddm.Problem.n (case.Powergrid.Suite.build ()) in
      let side = ref 2 in
      while node_count !side < target do
        incr side
      done;
      Alcotest.(check int)
        (Printf.sprintf "minimal grid for target %d" target)
        (node_count !side) n;
      Alcotest.(check bool)
        (Printf.sprintf "meets target %d" target)
        true (n >= target))
    [ 576; 600; 1000; 2047; 4096; 10000 ]

let test_suite_small_scale_builds () =
  (* tiny scale so every case builds fast; checks SDDM validity *)
  let all = Powergrid.Suite.all_cases ~scale:0.004 () in
  Array.iter
    (fun c ->
      let p = c.Powergrid.Suite.build () in
      Alcotest.(check bool)
        (c.Powergrid.Suite.id ^ " nontrivial")
        true
        (Sddm.Problem.n p > 10))
    all

let prop_netlist_roundtrip_random_circuits =
  QCheck.Test.make ~name:"random R/I/V netlists roundtrip through text"
    ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 12 in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "Vdd vdd 0 1.5\n";
      (* random connected resistor network over nodes a0..a_{n-1} + rails *)
      for i = 1 to n - 1 do
        Buffer.add_string buf
          (Printf.sprintf "R%d a%d a%d %.6g\n" i i (Rng.int rng i)
             (0.1 +. Rng.float rng))
      done;
      Buffer.add_string buf "Rtie a0 vdd 2.0\n";
      Buffer.add_string buf
        (Printf.sprintf "I1 a%d 0 %.6g\n" (Rng.int rng n) (Rng.float rng));
      let text = Buffer.contents buf in
      let nl = Powergrid.Netlist.parse_string text in
      let { Powergrid.Netlist.problem; _ } =
        Powergrid.Netlist.to_problem nl
      in
      let x = Factor.Chol.solve problem.Sddm.Problem.a problem.Sddm.Problem.b in
      (* KCL check: residual of the solve is tiny and voltages bounded by
         the rail plus the worst-case IR product *)
      Sddm.Problem.residual_norm problem x < 1e-10)

let prop_generator_always_sddm =
  QCheck.Test.make ~name:"generated grids are valid SDDM at random sizes"
    ~count:20
    QCheck.(pair (int_bound 10000) (int_range 6 30))
    (fun (seed, side) ->
      let spec = Powergrid.Generate.default ~nx:side ~ny:(side + 3) ~seed in
      let p = Powergrid.Generate.generate spec in
      Sddm.Graph.is_sddm p.Sddm.Problem.a)

let () =
  Alcotest.run "powergrid"
    [
      ( "generate",
        [
          Alcotest.test_case "structure" `Quick test_generate_structure;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "chunked equals circuit path" `Quick
            test_generate_chunked_equals_circuit;
          Alcotest.test_case "repair stitches minimal" `Quick
            test_repair_stitches_minimal;
          Alcotest.test_case "heavy vias" `Quick test_generate_heavy_vias;
          Alcotest.test_case "physical solution" `Quick test_solution_physical;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "value suffixes" `Quick test_netlist_value_suffixes;
          Alcotest.test_case "voltage divider" `Quick test_netlist_voltage_divider;
          Alcotest.test_case "current source sign" `Quick
            test_netlist_current_source_sign;
          Alcotest.test_case "errors" `Quick test_netlist_errors;
          Alcotest.test_case "grid roundtrip" `Quick test_netlist_roundtrip;
        ] );
      ( "dual-rail",
        [
          Alcotest.test_case "structure" `Quick test_dual_rail_structure;
          Alcotest.test_case "netlist roundtrip" `Quick
            test_dual_rail_netlist_roundtrip;
          Alcotest.test_case "total collapse" `Quick
            test_dual_rail_total_collapse;
        ] );
      ( "merge",
        [
          Alcotest.test_case "shrinks" `Quick test_merge_shrinks;
          Alcotest.test_case "solution close" `Quick test_merge_solution_close;
          Alcotest.test_case "uniform weights untouched" `Quick
            test_merge_no_heavy_edges;
        ] );
      ("ir-drop", [ Alcotest.test_case "report" `Quick test_ir_drop_report ]);
      ( "generators",
        [
          Alcotest.test_case "connected" `Quick test_gen_graphs_connected;
          Alcotest.test_case "mesh sizes" `Quick test_mesh_sizes;
          Alcotest.test_case "power law hubs" `Quick test_power_law_has_hubs;
        ] );
      ( "property",
        Test_util.qcheck
          [ prop_netlist_roundtrip_random_circuits; prop_generator_always_sddm ] );
      ( "suite",
        [
          Alcotest.test_case "lookup" `Quick test_suite_case_lookup;
          Alcotest.test_case "case is the generated problem" `Quick
            test_suite_case_is_generated;
          Alcotest.test_case "28 cases" `Quick test_suite_all_28;
          Alcotest.test_case "scale_case minimal" `Quick
            test_suite_scale_case_minimal;
          Alcotest.test_case "all build at tiny scale" `Slow
            test_suite_small_scale_builds;
        ] );
    ]
