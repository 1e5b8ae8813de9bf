(* Prepared-solve engine tests: factor once / solve many semantics,
   workspace reuse, versioned sessions, and the zero-allocation march. *)

module Solver = Powerrchol.Solver
module Engine = Powerrchol.Engine

let grid_problem ?(nx = 20) ?(ny = 20) ?(seed = 4242) () =
  let spec = Powergrid.Generate.default ~nx ~ny ~seed in
  let circuit = Powergrid.Generate.generate_circuit spec in
  Powergrid.Generate.circuit_to_problem ~name:"engine-test" circuit

let with_b problem b =
  Sddm.Problem.of_graph ~name:problem.Sddm.Problem.name
    ~graph:problem.Sddm.Problem.graph ~d:problem.Sddm.Problem.d ~b

let random_rhs ~rng n = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5)

(* ---- solve_many vs per-RHS full solves ---- *)

let test_solve_many_bit_identical () =
  let p = grid_problem () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 99 in
  let bs = Array.init 4 (fun _ -> random_rhs ~rng n) in
  (* reference: one fresh preparation + prepared solve per right-hand
     side *)
  let reference =
    Array.map
      (fun b -> Solver.solve_prepared (Solver.powerrchol_prepare (with_b p b)))
      bs
  in
  let batch = Solver.solve_many (Solver.powerrchol_prepare p) bs in
  Array.iteri
    (fun j (r : Solver.result) ->
      let ref_r = reference.(j) in
      Alcotest.(check bool)
        (Printf.sprintf "rhs %d solution bit-identical" j)
        true
        (r.Solver.x = ref_r.Solver.x);
      Alcotest.(check int)
        (Printf.sprintf "rhs %d iterations" j)
        ref_r.Solver.iterations r.Solver.iterations;
      Alcotest.(check bool)
        (Printf.sprintf "rhs %d converged" j)
        true r.Solver.converged)
    batch;
  (* and the batch agrees with the one-shot Solver.run *)
  let fresh =
    Solver.run (Solver.powerrchol ()) (with_b p bs.(0))
  in
  Alcotest.(check bool) "batch matches Solver.run" true
    (fresh.Solver.x = batch.(0).Solver.x)

let with_domains d f =
  Fun.protect
    ~finally:(fun () -> Par.set_default_domains (Par.recommended_domains ()))
    (fun () ->
      Par.set_default_domains d;
      f ())

let test_solve_many_domains_bit_identical () =
  (* At two domains a batch's chunks apply one preconditioner at once, so
     any application state they shared would move a bit here. *)
  let p = grid_problem ~nx:60 ~ny:60 ~seed:7171 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 31 in
  let bs = Array.init 8 (fun _ -> random_rhs ~rng n) in
  List.iter
    (fun (solver : Solver.t) ->
      let prepared = solver.Solver.prepare p in
      let batch d = with_domains d (fun () -> Solver.solve_many prepared bs) in
      let seq = batch 1 and par = batch 2 in
      Array.iteri
        (fun k (r : Solver.result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s rhs %d: 2 domains = 1 domain (%d vs %d its)"
               solver.Solver.name k par.(k).Solver.iterations
               r.Solver.iterations)
            true
            (r.Solver.x = par.(k).Solver.x
            && r.Solver.iterations = par.(k).Solver.iterations))
        seq)
    [
      Solver.powerrchol ();
      Solver.rchol ();
      Solver.lt_rchol ();
      Solver.rand_chol_custom ~name:"exact-shared"
        ~sort:Factor.Rand_chol.Exact_sort
        ~sampling:Factor.Rand_chol.Shared_random ~ordering:Solver.Amd ();
      Solver.fegrass ();
      Solver.fegrass_ichol ();
      Solver.amg_pcg ();
      Solver.direct ();
      Solver.jacobi ();
    ]

let test_prepared_reuse_identical () =
  let p = grid_problem ~seed:5151 () in
  let prepared = Solver.powerrchol_prepare p in
  let solves = Array.init 3 (fun _ -> Solver.solve_prepared prepared) in
  Array.iter
    (fun (r : Solver.result) ->
      Alcotest.(check int) "same iterations" solves.(0).Solver.iterations
        r.Solver.iterations;
      Alcotest.(check (float 0.0)) "same residual" solves.(0).Solver.residual
        r.Solver.residual;
      Alcotest.(check bool) "same solution" true
        (r.Solver.x = solves.(0).Solver.x);
      Alcotest.(check (float 0.0)) "marginal cost: no reorder time" 0.0
        r.Solver.t_reorder;
      Alcotest.(check (float 0.0)) "marginal cost: no factor time" 0.0
        r.Solver.t_precond)
    solves

(* ---- transient march: trajectory + allocation discipline ---- *)

let test_transient_matches_reference () =
  (* the refactored march (one workspace, solve_operator_into, no per-step
     blit) must reproduce the pre-refactor trajectory: PCG over the same
     shifted system with x0-copy semantics, step by step *)
  let spec = Powergrid.Generate.default ~nx:14 ~ny:14 ~seed:2024 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let h = 1e-10 and steps = 25 and rtol = 1e-8 in
  let waveform = Powerrchol.Transient.Waveform.pulse ~period:5e-10 ~duty:0.5 in
  let t = Powerrchol.Transient.prepare ~rtol ~circuit ~h () in
  let res = Powerrchol.Transient.simulate t ~steps ~waveform in
  (* reference implementation, mirroring Transient.prepare's system *)
  let dc = Powergrid.Generate.circuit_to_problem ~name:"ref-dc" circuit in
  let n = Sddm.Problem.n dc in
  let cap_over_h = Array.make n 0.0 in
  Array.iter
    (fun (node, farads) ->
      cap_over_h.(node) <- cap_over_h.(node) +. (farads /. h))
    circuit.Powergrid.Generate.caps;
  let d_shifted =
    Array.mapi (fun i di -> di +. cap_over_h.(i)) dc.Sddm.Problem.d
  in
  let shifted =
    Sddm.Problem.of_graph ~name:"ref-be" ~graph:dc.Sddm.Problem.graph
      ~d:d_shifted ~b:dc.Sddm.Problem.b
  in
  let prepared = Solver.powerrchol_prepare shifted in
  let v = Sparse.Vec.create n in
  let rhs = Sparse.Vec.create n in
  let iters = ref 0 in
  for k = 1 to steps do
    let scale = waveform (float_of_int k *. h) in
    for i = 0 to n - 1 do
      rhs.{i} <- (scale *. dc.Sddm.Problem.b.{i}) +. (cap_over_h.(i) *. v.{i})
    done;
    let r =
      Krylov.Pcg.solve ~rtol ~x0:v ~a:shifted.Sddm.Problem.a ~b:rhs
        ~precond:prepared.Solver.precond ()
    in
    Sparse.Vec.blit ~src:r.Krylov.Pcg.x ~dst:v;
    iters := !iters + r.Krylov.Pcg.iterations
  done;
  Alcotest.(check bool) "trajectory bit-identical" true
    (res.Powerrchol.Transient.v_final = v);
  Alcotest.(check int) "same total PCG iterations" !iters
    res.Powerrchol.Transient.total_iterations

let test_march_allocation_bound () =
  (* the march must not allocate per-step n-sized arrays: with n = 1600,
     any such allocation costs >= n words per step; the observed per-step
     budget (result records, step stats, list cells) is a few hundred *)
  let spec = Powergrid.Generate.default ~nx:40 ~ny:40 ~seed:3030 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let t = Powerrchol.Transient.prepare ~circuit ~h:1e-10 () in
  (* warm up: first simulate call pays one-time lazy setup *)
  ignore
    (Powerrchol.Transient.simulate t ~steps:2
       ~waveform:Powerrchol.Transient.Waveform.step);
  let steps = 50 in
  let before = Gc.minor_words () in
  let res =
    Powerrchol.Transient.simulate t ~steps
      ~waveform:Powerrchol.Transient.Waveform.step
  in
  let words = Gc.minor_words () -. before in
  let per_step = words /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "allocation per step %.0f words < 1000 (n = %d)" per_step
       (Sparse.Vec.length res.Powerrchol.Transient.v_final))
    true (per_step < 1000.0)

let test_prepared_solve_allocation_bound () =
  (* A warm prepared solve allocates a constant budget (the result
     record, the PCG loop's handful of words, the verification vectors'
     headers), not words per unknown: the answer's true-residual check
     must not box a float per entry. *)
  let p =
    (Powergrid.Suite.scale_case ~target_nodes:12_000 ()).Powergrid.Suite.build
      ()
  in
  let n = Sddm.Problem.n p in
  let prepared = Solver.powerrchol_prepare p in
  ignore (Solver.solve_prepared prepared);
  let before = Gc.minor_words () in
  let r = Solver.solve_prepared prepared in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for one solve (n = %d)" words n)
    true
    (n >= 10_000 && words < float_of_int n /. 8.0)

(* ---- in-place PCG contract ---- *)

let test_solve_operator_into_caller_buffer () =
  let p = grid_problem ~nx:6 ~ny:6 ~seed:4040 () in
  let n = Sddm.Problem.n p in
  let prepared = Solver.powerrchol_prepare p in
  let ws = Krylov.Pcg.Workspace.create n in
  let x = Sparse.Vec.create n in
  let res =
    Krylov.Pcg.solve_operator_into ~workspace:ws ~x
      ~apply_a:(Sparse.Csc.spmv_sym_into p.Sddm.Problem.a)
      ~b:p.Sddm.Problem.b ~precond:prepared.Solver.precond ()
  in
  Alcotest.(check bool) "result.x is physically the caller buffer" true
    (res.Krylov.Pcg.x == x);
  Alcotest.(check bool) "no residual history kept" true
    (res.Krylov.Pcg.history = [||]);
  Alcotest.(check (float 0.0)) "no condition tracking" 1.0
    res.Krylov.Pcg.condition_estimate;
  Alcotest.(check bool) "converged" true res.Krylov.Pcg.converged

let test_precond_identity_validates () =
  let p = Krylov.Precond.identity 4 in
  let ok = Sparse.Vec.make 4 1.0 in
  p.Krylov.Precond.apply ok ok;
  Alcotest.(check bool) "short r rejected" true
    (match
       p.Krylov.Precond.apply (Sparse.Vec.make 3 1.0) (Sparse.Vec.create 4)
     with
     | () -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "short z rejected" true
    (match
       p.Krylov.Precond.apply (Sparse.Vec.make 4 1.0) (Sparse.Vec.create 2)
     with
     | () -> false
     | exception Invalid_argument _ -> true)

(* ---- versioned sessions (incremental re-solve) ---- *)

module Session = Engine.Session

(* From-scratch reference for an edit history: what a fresh prepare of the
   edited system produces. The session's correctness contract is that its
   solutions agree with this within solver tolerance after ANY update
   sequence, whatever rungs were taken. *)
let scratch_solve ?rtol p edits =
  let edited = Sddm.Edit.edited_problem p edits in
  let prepared = Solver.powerrchol_prepare edited in
  (edited, Solver.solve_prepared ?rtol prepared)

let max_abs_diff a b =
  let m = ref 0.0 in
  for i = 0 to Sparse.Vec.length a - 1 do
    m := Float.max !m (abs_float (a.{i} -. b.{i}))
  done;
  !m

let find_edge_of p =
  (* some existing bottom-mesh edge, deterministically *)
  let e = ref None in
  Sddm.Graph.iter_edges p.Sddm.Problem.graph (fun u v w ->
      if !e = None && w > 0.0 then e := Some (u, v));
  match !e with Some uv -> uv | None -> Alcotest.fail "no edges"

let test_session_rhs_only_rung () =
  let p = grid_problem ~nx:12 ~ny:12 ~seed:8101 () in
  let s = Session.create p in
  let h0 = Session.prepared s in
  let edits = [ Sddm.Edit.Set_load { node = 7; amps = 0.02 } ] in
  let report = Engine.update s edits in
  Alcotest.(check bool) "rhs-only rung" true
    (report.Session.rung = Session.Rhs_only);
  Alcotest.(check int) "version bumped" 1 (Session.version s);
  Alcotest.(check bool) "handle untouched" true (Session.prepared s == h0);
  let r = Session.solve s in
  let _, ref_r = scratch_solve p edits in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "matches scratch (diff %.3e)"
       (max_abs_diff r.Solver.x ref_r.Solver.x))
    true
    (max_abs_diff r.Solver.x ref_r.Solver.x < 1e-6)

let test_session_local_rung_matches_scratch () =
  let p = grid_problem ~nx:16 ~ny:16 ~seed:8202 () in
  let s = Session.create p in
  let u, v = find_edge_of p in
  let edits =
    [
      Sddm.Edit.Scale_conductance { u; v; factor = 4.0 };
      Sddm.Edit.Set_excess { node = u; siemens = 0.5 };
    ]
  in
  let report = Engine.update s edits in
  Alcotest.(check bool) "local rung" true (report.Session.rung = Session.Local);
  Alcotest.(check bool) "re-eliminated some columns" true
    (report.Session.columns > 0);
  Alcotest.(check bool) "no skipped rungs" true (report.Session.skipped = []);
  let r = Session.solve s in
  let edited, ref_r = scratch_solve p edits in
  (* true-residual verification against an independently built edited
     matrix: the factor preconditions the EDITED system *)
  let true_res = Sddm.Problem.residual_norm edited r.Solver.x in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "true residual %.3e <= 1e-5" true_res)
    true (true_res <= 1e-5);
  Alcotest.(check bool)
    (Printf.sprintf "matches scratch (diff %.3e)"
       (max_abs_diff r.Solver.x ref_r.Solver.x))
    true
    (max_abs_diff r.Solver.x ref_r.Solver.x < 1e-5)

let test_session_local_at_any_closure () =
  (* On a small grid a single edit's closure can exceed a quarter of the
     columns. Single-edge edits spread over the edge list, then one batch
     of twenty, all refactor in place, and every re-solve answers the
     edited system. *)
  let p = (Powergrid.Suite.find ~scale:0.1 "pg01").Powergrid.Suite.build () in
  let n = Sddm.Problem.n p in
  let edges = ref [] in
  Sddm.Graph.iter_edges p.Sddm.Problem.graph (fun u v w ->
      if w > 0.0 then edges := (u, v) :: !edges);
  let edges = Array.of_list (List.rev !edges) in
  let m = Array.length edges in
  let scale k factor =
    let u, v = edges.(k * m / 20 mod m) in
    Sddm.Edit.Scale_conductance { u; v; factor }
  in
  let batches =
    List.init 12 (fun k -> [ scale k 2.0 ])
    @ [ List.init 20 (fun k -> scale (k + 3) 0.5) ]
  in
  let s = Session.create p in
  let history = ref [] and widest = ref 0 in
  List.iteri
    (fun i edits ->
      let report = Engine.update s edits in
      history := !history @ edits;
      Alcotest.(check string)
        (Printf.sprintf "update %d: rung" i)
        "local"
        (Session.rung_name report.Session.rung);
      widest := max !widest report.Session.columns;
      let r = Session.solve s in
      let res =
        Sddm.Problem.residual_norm
          (Sddm.Edit.edited_problem p !history)
          r.Solver.x
      in
      Alcotest.(check bool)
        (Printf.sprintf "update %d: true residual %.3e <= 1e-5" i res)
        true (res <= 1e-5))
    batches;
  Alcotest.(check bool)
    (Printf.sprintf "widest closure %d columns > n/4 = %d" !widest (n / 4))
    true
    (!widest > n / 4)

let test_session_full_rung_bit_identical () =
  let p = grid_problem ~nx:12 ~ny:12 ~seed:8404 () in
  let s = Session.create p in
  let ws0 = (Session.prepared s).Solver.workspace in
  (* connect two far-apart nodes that share no edge: pattern growth *)
  let n = Sddm.Problem.n p in
  let edits = [ Sddm.Edit.Add_resistor { u = 0; v = n - 1; siemens = 2.0 } ] in
  let report = Engine.update s edits in
  Alcotest.(check bool) "full rung" true (report.Session.rung = Session.Full);
  Alcotest.(check int) "the local rung skipped" 1
    (List.length report.Session.skipped);
  Alcotest.(check bool) "workspace survives the re-prepare" true
    ((Session.prepared s).Solver.workspace == ws0);
  let r = Session.solve s in
  let _, ref_r = scratch_solve p edits in
  (* the full rung IS a from-scratch prepare: bit-for-bit agreement *)
  Alcotest.(check bool) "bit-identical to scratch" true
    (r.Solver.x = ref_r.Solver.x);
  Alcotest.(check int) "same iterations" ref_r.Solver.iterations
    r.Solver.iterations

let test_session_edit_storm_stays_correct () =
  let spec = Powergrid.Generate.default ~nx:20 ~ny:20 ~seed:8505 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let p = Powergrid.Generate.circuit_to_problem ~name:"storm" circuit in
  let scenarios = Powergrid.Eco.storm ~seed:11 ~spec circuit ~count:12 in
  Alcotest.(check bool) "edits stay local" true
    (Powergrid.Eco.max_support scenarios <= 16);
  let s = Session.create p in
  let history = ref [] in
  Array.iteri
    (fun i sc ->
      let report = Engine.update s sc.Powergrid.Eco.edits in
      history := !history @ sc.Powergrid.Eco.edits;
      Alcotest.(check int)
        (Printf.sprintf "version after scenario %d" i)
        (i + 1) (Session.version s);
      let r = Session.solve s in
      let edited = Sddm.Edit.edited_problem p !history in
      let true_res = Sddm.Problem.residual_norm edited r.Solver.x in
      Alcotest.(check bool)
        (Printf.sprintf "scenario %d (%s, rung %s): true residual %.3e" i
           sc.Powergrid.Eco.label
           (Session.rung_name report.Session.rung)
           true_res)
        true
        (r.Solver.converged && true_res <= 1e-5))
    scenarios

(* ---- robust chain determinism with shared permutation ---- *)

let test_robust_trace_deterministic () =
  (* a tight tolerance with an iteration budget too small for PCG forces
     the powerrchol rung and both reseed rungs (which share one Alg. 4
     permutation) to fail before direct rescues the solve; two runs must
     be byte-identical *)
  let p = grid_problem ~nx:10 ~ny:10 ~seed:5050 () in
  let run () = Solver.solve_robust ~rtol:1e-10 ~max_iter:3 p in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check string) "byte-identical robust trace"
    (Solver.robust_trace r1) (Solver.robust_trace r2);
  Alcotest.(check bool) "still solved" true (Solver.robust_ok r1);
  (match r1.Solver.outcome with
   | Solver.Robust_solved { attempts; _ } ->
     Alcotest.(check bool)
       (Printf.sprintf "escalated through %d rungs" (List.length attempts))
       true
       (List.length attempts >= 3)
   | _ -> Alcotest.fail "expected Robust_solved")

let test_robust_powerrchol_rung_is_powerrchol () =
  (* on a clean connected system the first rung wins, and it prepares
     exactly like Solver.powerrchol: same ordering, same seed discipline,
     so the same solution bit for bit. The grid is large enough (> 1024
     nodes) for the partitioned ordering to bisect, so it differs from a
     plain Alg. 4 degree sort. *)
  let p = grid_problem ~nx:40 ~ny:40 ~seed:6060 () in
  let seed = 77 in
  let r = Solver.solve_robust ~seed p in
  let reference = Solver.run (Solver.powerrchol ~seed ()) p in
  match r.Solver.outcome with
  | Solver.Robust_solved { x; winner; attempts; _ } ->
    Alcotest.(check string) "winner" "powerrchol" winner;
    Alcotest.(check int) "no failed attempts" 0 (List.length attempts);
    Alcotest.(check bool) "x bit-identical to Solver.run powerrchol" true
      (x = reference.Solver.x)
  | _ -> Alcotest.fail "expected Robust_solved"

let test_robust_chain_per_island () =
  (* Starved so every powerrchol rung fails. A connected grid is one
     island: its attempts carry no prefix, and both reseed rungs find its
     permutation already computed. Two copies of the grid side by side
     are two islands, each with its own chain, prefix and permutation. A
     lent handle stands in for the first rung, so only the second reseed
     rung finds the permutation computed. *)
  let p = grid_problem ~nx:10 ~ny:10 ~seed:5050 () in
  let n = Sddm.Problem.n p in
  let edges = ref [] in
  Sddm.Graph.iter_edges p.Sddm.Problem.graph (fun u v w ->
      edges := (u, v, w) :: (u + n, v + n, w) :: !edges);
  let twin =
    Sddm.Problem.of_graph ~name:"twin"
      ~graph:(Sddm.Graph.create ~n:(2 * n) ~edges:(Array.of_list !edges))
      ~d:(Array.append p.Sddm.Problem.d p.Sddm.Problem.d)
      ~b:(Sparse.Vec.init (2 * n) (fun i -> p.Sddm.Problem.b.{i mod n}))
  in
  let starved ?prepared problem =
    let r, record =
      Solver.with_obs
        ~meta_of:(fun _ -> [])
        (fun () ->
          Solver.solve_robust ?prepared ~rtol:1e-10 ~max_iter:3 problem)
    in
    match r.Solver.outcome with
    | Solver.Robust_solved { attempts; _ } ->
      ( List.map (fun (a : Robust.Fallback.attempt) -> a.rung) attempts,
        List.assoc_opt "robust/perm_reuse" record.Obs.counters )
    | _ -> Alcotest.fail "expected Robust_solved"
  in
  let prefixed pre rung =
    String.length rung > String.length pre
    && String.sub rung 0 (String.length pre) = pre
  in
  let reuses = Alcotest.(option (float 0.0)) in
  let rungs, reuse = starved p in
  Alcotest.(check (list string))
    "connected: first rungs, unprefixed"
    [ "powerrchol"; "powerrchol(reseed 1)"; "powerrchol(reseed 2)" ]
    (List.filteri (fun i _ -> i < 3) rungs);
  Alcotest.(check reuses) "connected: two reuses" (Some 2.0) reuse;
  let rungs, reuse = starved twin in
  Alcotest.(check bool) "islands: every rung prefixed" true
    (List.for_all (fun r -> prefixed "c0/" r || prefixed "c1/" r) rungs);
  Alcotest.(check bool) "islands: both islands ran" true
    (List.mem "c0/powerrchol(reseed 2)" rungs
    && List.mem "c1/powerrchol(reseed 2)" rungs);
  Alcotest.(check reuses) "islands: two reuses each" (Some 4.0) reuse;
  let _, reuse = starved ~prepared:(Solver.powerrchol_prepare p) p in
  Alcotest.(check reuses) "lent handle: one reuse" (Some 1.0) reuse

(* ---- golden bits ---- *)

(* MD5 over a solution's little-endian float64 bits. *)
let bits_md5 (x : Sparse.Vec.t) =
  let n = Sparse.Vec.length x in
  let buf = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * i) (Int64.bits_of_float x.{i})
  done;
  Digest.to_hex (Digest.bytes buf)

let check_golden label ~iterations ~md5 ~x ~its =
  Alcotest.(check int) (label ^ ": iterations") iterations its;
  Alcotest.(check string) (label ^ ": solution bits") md5 (bits_md5 x)

let test_golden_bits () =
  (* Every randomized-Cholesky preparation, pinned to the bits it solves
     to on the 12,178-node scale grid. The values hold at any domain
     count and with either index width, so a change that moves one of
     them changed the factorization, not the platform. *)
  let p =
    (Powergrid.Suite.scale_case ~target_nodes:12_000 ()).Powergrid.Suite.build
      ()
  in
  let check label ~iterations ~md5 solver =
    let r = Solver.run solver p in
    check_golden label ~iterations ~md5 ~x:r.Solver.x ~its:r.Solver.iterations
  in
  check "powerrchol" ~iterations:23 ~md5:"ed31d8431443645d38bc7ada6d17ef19"
    (Solver.powerrchol ());
  check "powerrchol heavy factor 2" ~iterations:23
    ~md5:"c4496fdfdb35dc7301255c35f2054cab"
    (Solver.powerrchol ~heavy_factor:2.0 ());
  check "lt-rchol(alg4)" ~iterations:20
    ~md5:"6662749137dd331fdb563fdfae429210"
    (Solver.lt_rchol ~ordering:Solver.Degree_sort ());
  check "rchol(amd)" ~iterations:23 ~md5:"49c890a2b083c0c601f5e46825320e8b"
    (Solver.rchol ());
  let session_md5 = "7ea871445e3bbd1ef9370d664ed860e3" in
  let r = Session.solve (Session.create ~seed:9 p) in
  check_golden "session seed 9" ~iterations:21 ~md5:session_md5 ~x:r.Solver.x
    ~its:r.Solver.iterations;
  (* one ECO edit through the Local rung: pins the refactor's arithmetic,
     its excess-diagonal gather over the row index of L included *)
  let s = Session.create ~seed:9 p in
  let rep =
    Session.update s
      [ Sddm.Edit.Scale_conductance { u = 6046; v = 6047; factor = 2.0 } ]
  in
  Alcotest.(check string) "session update: rung" "local"
    (Session.rung_name rep.Session.rung);
  Alcotest.(check int) "session update: columns" 1559 rep.Session.columns;
  let r = Session.solve s in
  check_golden "session update" ~iterations:21
    ~md5:"0e2f255c39a83ff52ba8a2003c24fb44" ~x:r.Solver.x
    ~its:r.Solver.iterations;
  match (Solver.solve_robust ~seed:9 p).Solver.outcome with
  | Solver.Robust_solved { x; winner; iterations; _ } ->
    Alcotest.(check string) "robust seed 9: winner" "powerrchol" winner;
    check_golden "robust seed 9" ~iterations:21 ~md5:session_md5 ~x
      ~its:iterations
  | _ -> Alcotest.fail "expected Robust_solved"

let () =
  Alcotest.run "engine"
    [
      ( "solve-many",
        [
          Alcotest.test_case "bit-identical to per-RHS pipeline" `Quick
            test_solve_many_bit_identical;
          Alcotest.test_case "prepared handle reuse" `Quick
            test_prepared_reuse_identical;
          Alcotest.test_case "every solver bit-identical at 2 domains" `Quick
            test_solve_many_domains_bit_identical;
          Alcotest.test_case "prepared solve allocation bound" `Quick
            test_prepared_solve_allocation_bound;
        ] );
      ( "transient",
        [
          Alcotest.test_case "march matches reference" `Quick
            test_transient_matches_reference;
          Alcotest.test_case "march allocation bound" `Quick
            test_march_allocation_bound;
        ] );
      ( "pcg-into",
        [
          Alcotest.test_case "caller buffer identity" `Quick
            test_solve_operator_into_caller_buffer;
          Alcotest.test_case "identity precond validates" `Quick
            test_precond_identity_validates;
        ] );
      ( "robust",
        [
          Alcotest.test_case "trace deterministic with shared perm" `Quick
            test_robust_trace_deterministic;
          Alcotest.test_case "powerrchol rung matches Solver.run" `Quick
            test_robust_powerrchol_rung_is_powerrchol;
          Alcotest.test_case "one chain per island" `Quick
            test_robust_chain_per_island;
        ] );
      ( "session",
        [
          Alcotest.test_case "rhs-only rung" `Quick test_session_rhs_only_rung;
          Alcotest.test_case "local rung matches scratch" `Quick
            test_session_local_rung_matches_scratch;
          Alcotest.test_case "local rung at any closure size" `Quick
            test_session_local_at_any_closure;
          Alcotest.test_case "full rung bit-identical" `Quick
            test_session_full_rung_bit_identical;
          Alcotest.test_case "edit storm stays correct" `Quick
            test_session_edit_storm_stays_correct;
        ] );
      ( "golden",
        [
          Alcotest.test_case "solution bits on the 12k grid" `Quick
            test_golden_bits;
        ] );
    ]
