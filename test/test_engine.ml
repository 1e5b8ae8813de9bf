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
  (* max_fraction 1.0: the etree-local rung always gets the budget, so a
     value-only edit must take it *)
  let s = Session.create ~max_fraction:1.0 p in
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

let test_session_low_rank_rung () =
  let p = grid_problem ~nx:16 ~ny:16 ~seed:8303 () in
  (* max_fraction 0: the local rung's budget is one column, so any real
     edit overflows it and the small-support Woodbury rung must catch *)
  let s = Session.create ~max_fraction:0.0 p in
  let u, v = find_edge_of p in
  let edits = [ Sddm.Edit.Scale_conductance { u; v; factor = 3.0 } ] in
  let report = Engine.update s edits in
  Alcotest.(check bool) "low-rank rung" true
    (report.Session.rung = Session.Low_rank);
  Alcotest.(check int) "support is the two endpoints" 2
    report.Session.support;
  Alcotest.(check bool) "local rung skipped with reason" true
    (match report.Session.skipped with
     | [ { Robust.Fallback.rung = "local"; failure = Robust.Fallback.Skipped _ } ]
       -> true
     | _ -> false);
  let r = Session.solve s in
  let edited, ref_r = scratch_solve p edits in
  let true_res = Sddm.Problem.residual_norm edited r.Solver.x in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "true residual %.3e <= 1e-5" true_res)
    true (true_res <= 1e-5);
  Alcotest.(check bool)
    (Printf.sprintf "matches scratch (diff %.3e)"
       (max_abs_diff r.Solver.x ref_r.Solver.x))
    true
    (max_abs_diff r.Solver.x ref_r.Solver.x < 1e-5);
  (* deltas accumulate: a second edit through the same rung still
     preconditions the doubly-edited matrix *)
  let edits2 = [ Sddm.Edit.Set_excess { node = v; siemens = 0.25 } ] in
  let report2 = Engine.update s edits2 in
  Alcotest.(check bool) "still low-rank" true
    (report2.Session.rung = Session.Low_rank);
  let r2 = Session.solve s in
  let edited2, ref2 = scratch_solve p (edits @ edits2) in
  let res2 = Sddm.Problem.residual_norm edited2 r2.Solver.x in
  Alcotest.(check bool)
    (Printf.sprintf "accumulated true residual %.3e <= 1e-5" res2)
    true (res2 <= 1e-5);
  Alcotest.(check bool)
    (Printf.sprintf "accumulated matches scratch (diff %.3e)"
       (max_abs_diff r2.Solver.x ref2.Solver.x))
    true
    (max_abs_diff r2.Solver.x ref2.Solver.x < 1e-5)

let test_session_full_rung_bit_identical () =
  let p = grid_problem ~nx:12 ~ny:12 ~seed:8404 () in
  let s = Session.create p in
  let ws0 = (Session.prepared s).Solver.workspace in
  (* connect two far-apart nodes that share no edge: pattern growth *)
  let n = Sddm.Problem.n p in
  let edits = [ Sddm.Edit.Add_resistor { u = 0; v = n - 1; siemens = 2.0 } ] in
  let report = Engine.update s edits in
  Alcotest.(check bool) "full rung" true (report.Session.rung = Session.Full);
  Alcotest.(check int) "both incremental rungs skipped" 2
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

let () =
  Alcotest.run "engine"
    [
      ( "solve-many",
        [
          Alcotest.test_case "bit-identical to per-RHS pipeline" `Quick
            test_solve_many_bit_identical;
          Alcotest.test_case "prepared handle reuse" `Quick
            test_prepared_reuse_identical;
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
        ] );
      ( "session",
        [
          Alcotest.test_case "rhs-only rung" `Quick test_session_rhs_only_rung;
          Alcotest.test_case "local rung matches scratch" `Quick
            test_session_local_rung_matches_scratch;
          Alcotest.test_case "low-rank rung matches scratch" `Quick
            test_session_low_rank_rung;
          Alcotest.test_case "full rung bit-identical" `Quick
            test_session_full_rung_bit_identical;
          Alcotest.test_case "edit storm stays correct" `Quick
            test_session_edit_storm_stays_correct;
        ] );
    ]
