(* Parallel-backend tests: pool semantics, kernel bit-identity between the
   sequential and gather forms and across domain counts, determinism of
   the solves across domain counts, and a fault-injected stress run of the
   batched solve path. *)

module Solver = Powerrchol.Solver

(* Every test that widens the default pool restores it, so suites stay
   independent of execution order. *)
let with_domains d f =
  Fun.protect
    ~finally:(fun () -> Par.set_default_domains (Par.recommended_domains ()))
    (fun () ->
      Par.set_default_domains d;
      f ())

let grid_problem ?(nx = 30) ?(ny = 30) ?(seed = 6161) () =
  let spec = Powergrid.Generate.default ~nx ~ny ~seed in
  let circuit = Powergrid.Generate.generate_circuit spec in
  Powergrid.Generate.circuit_to_problem ~name:"par-test" circuit

let random_rhs ~rng n = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5)

let factor_of problem =
  let g = problem.Sddm.Problem.graph in
  let perm = Ordering.Degree_sort.order g in
  let gp = Sddm.Graph.permute g perm in
  let d = problem.Sddm.Problem.d in
  let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
  (perm, Factor.Lt_rchol.factorize ~rng:(Rng.create 31) gp ~d:dp)

(* ---- pool semantics ---- *)

let test_parallel_for_partition () =
  List.iter
    (fun d ->
      let pool = Par.create ~domains:d () in
      Fun.protect
        ~finally:(fun () -> Par.shutdown pool)
        (fun () ->
          let hits = Array.make 1000 0 in
          Par.parallel_for pool ~lo:0 ~hi:1000 (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "every index covered once at %d domains" d)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    [ 1; 2; 3; 5 ]

let test_set_default_domains () =
  (* the width is recorded first and the pool follows it: effective_domains
     reads the set width before any pool exists, the next default () has
     it, and a later width replaces a spawned pool *)
  with_domains 3 (fun () ->
      Alcotest.(check int) "effective width" 3 (Par.effective_domains ());
      Alcotest.(check int) "default pool" 3 (Par.domains (Par.default ()));
      Par.set_default_domains 2;
      Alcotest.(check int) "reset width" 2 (Par.effective_domains ());
      Alcotest.(check int) "replaced pool" 2 (Par.domains (Par.default ())));
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Par.set_default_domains: domains must be >= 1")
    (fun () -> Par.set_default_domains 0)

let test_parallel_for_exception () =
  let pool = Par.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Par.shutdown pool)
    (fun () ->
      Alcotest.check_raises "worker exception reaches the caller"
        (Failure "chunk") (fun () ->
          Par.parallel_for pool ~lo:0 ~hi:300 (fun lo _hi ->
              if lo > 0 then failwith "chunk"));
      (* the pool must survive the failed region *)
      let acc = ref 0 in
      Par.parallel_for pool ~lo:0 ~hi:3 (fun lo hi ->
          for _ = lo to hi - 1 do
            incr acc
          done);
      Alcotest.(check int) "pool usable after exception" 3 !acc)

let test_nested_calls_inline () =
  let pool = Par.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Par.shutdown pool)
    (fun () ->
      let inner_parallel = ref false in
      Par.parallel_for pool ~lo:0 ~hi:2 (fun _ _ ->
          (* a nested region on a busy pool must degrade to inline
             sequential execution instead of deadlocking *)
          if Par.runs_parallel pool then inner_parallel := true;
          Par.parallel_for pool ~lo:0 ~hi:10 (fun _ _ -> ()));
      Alcotest.(check bool) "nested region is inline" false !inner_parallel)

(* ---- vector kernels ---- *)

let test_vec_kernels_match_seq () =
  (* long enough that a chunked or blocked kernel would split it *)
  let n = 20_000 in
  let rng = Rng.create 7 in
  let x = random_rhs ~rng n in
  let y0 = random_rhs ~rng n in
  let seq_dot, seq_axpy, seq_xpby, seq_scale =
    ( Sparse.Vec.dot x y0,
      (let y = Sparse.Vec.copy y0 in
       Sparse.Vec.axpy ~alpha:1.5 ~x ~y;
       y),
      (let y = Sparse.Vec.copy y0 in
       Sparse.Vec.xpby ~x ~beta:0.25 ~y;
       y),
      let y = Sparse.Vec.copy y0 in
      Sparse.Vec.scale y 3.0;
      y )
  in
  with_domains 3 (fun () ->
      Alcotest.(check bool)
        "dot bit-identical at 3 domains" true
        (Sparse.Vec.dot x y0 = seq_dot);
      let y = Sparse.Vec.copy y0 in
      Sparse.Vec.axpy ~alpha:1.5 ~x ~y;
      Alcotest.(check bool) "axpy bit-identical" true (y = seq_axpy);
      let y = Sparse.Vec.copy y0 in
      Sparse.Vec.xpby ~x ~beta:0.25 ~y;
      Alcotest.(check bool) "xpby bit-identical" true (y = seq_xpby);
      let y = Sparse.Vec.copy y0 in
      Sparse.Vec.scale y 3.0;
      Alcotest.(check bool) "scale bit-identical" true (y = seq_scale))

(* ---- gather SpMV ---- *)

let test_spmv_gather_matches_scatter () =
  let p = grid_problem () in
  let a = p.Sddm.Problem.a in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 17 in
  let x = random_rhs ~rng n in
  let y_scatter = Sparse.Vec.create n in
  Sparse.Csc.spmv_into a x y_scatter;
  let y_gather = Sparse.Vec.create n in
  Sparse.Csc.spmv_sym_into a x y_gather;
  Alcotest.(check bool) "gather = scatter sequentially" true
    (y_gather = y_scatter);
  with_domains 3 (fun () ->
      let y_par = Sparse.Vec.create n in
      Sparse.Csc.spmv_sym_into a x y_par;
      Alcotest.(check bool) "gather bit-identical at 3 domains" true
        (y_par = y_scatter));
  Alcotest.check_raises "rectangular matrix rejected"
    (Invalid_argument "Csc.spmv_sym_into: matrix must be square") (fun () ->
      let t = Sparse.Triplet.create ~n_rows:2 ~n_cols:3 () in
      Sparse.Triplet.add t 0 0 1.0;
      Sparse.Csc.spmv_sym_into (Sparse.Csc.of_triplet t)
        (Sparse.Vec.create 3) (Sparse.Vec.create 2))

(* ---- preconditioner apply ---- *)

let test_apply_preconditioner_matches_seq () =
  let p = grid_problem ~nx:40 ~ny:40 ~seed:3333 () in
  let perm, l = factor_of p in
  let n = Factor.Lower.dim l in
  let rng = Rng.create 23 in
  let r = random_rhs ~rng n in
  let scratch = Sparse.Vec.create n in
  let z_seq = Sparse.Vec.create n in
  Factor.Lower.apply_preconditioner l ~perm ~scratch r z_seq;
  with_domains 3 (fun () ->
      let z_par = Sparse.Vec.create n in
      Factor.Lower.apply_preconditioner l ~perm ~scratch r z_par;
      Alcotest.(check bool)
        (Printf.sprintf "apply_preconditioner matches (n=%d)" n)
        true (z_par = z_seq))

let test_diag_cached () =
  let p = grid_problem ~nx:10 ~ny:10 () in
  let _, l = factor_of p in
  let d1 = Factor.Lower.diag l in
  Alcotest.(check bool) "diag is cached" true (d1 == Factor.Lower.diag l);
  Alcotest.(check int) "diag has factor dimension" (Factor.Lower.dim l)
    (Sparse.Vec.length d1)

let test_length_checks () =
  let p = grid_problem ~nx:10 ~ny:10 () in
  let perm, l = factor_of p in
  let n = Factor.Lower.dim l in
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "solve_in_place rejects short vector" true
    (raises (fun () -> Factor.Lower.solve_in_place l (Sparse.Vec.create (n - 1))));
  Alcotest.(check bool) "solve_transpose rejects short vector" true
    (raises (fun () ->
         Factor.Lower.solve_transpose_in_place l (Sparse.Vec.create (n + 1))));
  Alcotest.(check bool) "apply_preconditioner rejects short scratch" true
    (raises (fun () ->
         Factor.Lower.apply_preconditioner l ~perm
           ~scratch:(Sparse.Vec.create (n - 1)) (Sparse.Vec.create n)
           (Sparse.Vec.create n)))

(* ---- full solves across domain counts ---- *)

let test_solve_deterministic_across_domains () =
  (* Two grids, about 5,000 and 20,825 unknowns; the larger is big
     enough that a chunked kernel or a blocked dot product would move its
     bits. A one-shot solve must give the same bits at every domain
     count, and a prepared solve the same bits alone as inside a batch,
     whose chunks run on the pool. *)
  List.iter
    (fun (nx, seed) ->
      let p = grid_problem ~nx ~ny:nx ~seed () in
      let n = Sddm.Problem.n p in
      let run_at d =
        with_domains d (fun () -> Solver.run (Solver.powerrchol ()) p)
      in
      let r1 = run_at 1 in
      Alcotest.(check bool)
        (Printf.sprintf "baseline converges (n=%d)" n)
        true r1.Solver.converged;
      List.iter
        (fun d ->
          let rd = run_at d in
          Alcotest.(check int)
            (Printf.sprintf "iterations equal at %d domains (n=%d)" d n)
            r1.Solver.iterations rd.Solver.iterations;
          Alcotest.(check bool)
            (Printf.sprintf "solution bit-identical at %d domains (n=%d)" d n)
            true (rd.Solver.x = r1.Solver.x))
        [ 2; 3 ];
      let prepared = Solver.powerrchol_prepare p in
      let rng = Rng.create 83 in
      let bs = Array.init 2 (fun _ -> random_rhs ~rng n) in
      with_domains 2 (fun () ->
          let batch = Solver.solve_many prepared bs in
          Array.iteri
            (fun k b ->
              let alone = Solver.solve_prepared ~b prepared in
              Alcotest.(check bool)
                (Printf.sprintf "rhs %d alone = in a batch (n=%d)" k n)
                true
                (alone.Solver.x = batch.(k).Solver.x))
            bs))
    [ (70, 4444); (140, 4445) ]

let test_keyed_rng_deterministic_across_domains () =
  (* the ECO storm generator and any parallel sampling code key their
     generators by (seed, index) instead of drawing from a shared stream,
     so the values must not depend on which domain handles which index —
     or on the domain count at all *)
  let draw_at d =
    with_domains d (fun () ->
        let out = Array.make 10_000 0.0 in
        Par.parallel_for (Par.default ()) ~lo:0 ~hi:10_000 (fun clo chi ->
            for i = clo to chi - 1 do
              let rng = Rng.keyed ~seed:97 i in
              out.(i) <- Rng.float rng +. float_of_int (Rng.int rng 1000)
            done);
        out)
  in
  let seq = draw_at 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "keyed draws bit-identical at %d domains" d)
        true
        (draw_at d = seq))
    [ 2; 4 ];
  (* distinct indices must decorrelate: a keyed stream is not a shifted
     copy of its neighbor *)
  let distinct = Hashtbl.create 64 in
  Array.iter (fun x -> Hashtbl.replace distinct x ()) seq;
  Alcotest.(check bool) "indices decorrelated" true
    (Hashtbl.length distinct > 9_900)

(* ---- batched solves: parallel fan-out + fault injection stress ---- *)

let test_solve_many_parallel_matches_seq () =
  let p = grid_problem ~nx:25 ~ny:25 ~seed:5555 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 71 in
  let bs = Array.init 7 (fun _ -> random_rhs ~rng n) in
  (* poison two right-hand sides: the batch must report per-solve typed
     breakdowns without disturbing its healthy neighbors *)
  bs.(2) <- Fault.inject_nan_rhs ~row:5 bs.(2);
  bs.(5) <- Fault.inject_nan_rhs ~row:0 bs.(5);
  let prepared = Solver.powerrchol_prepare p in
  let seq = Solver.solve_many prepared bs in
  let par = with_domains 3 (fun () -> Solver.solve_many prepared bs) in
  Alcotest.(check int) "batch sizes agree" (Array.length seq)
    (Array.length par);
  Array.iteri
    (fun k (s : Solver.result) ->
      let q = par.(k) in
      Alcotest.(check string)
        (Printf.sprintf "rhs %d status" k)
        (Krylov.Pcg.status_to_string s.Solver.status)
        (Krylov.Pcg.status_to_string q.Solver.status);
      Alcotest.(check int)
        (Printf.sprintf "rhs %d iterations" k)
        s.Solver.iterations q.Solver.iterations;
      Alcotest.(check bool)
        (Printf.sprintf "rhs %d solution bit-identical" k)
        true (q.Solver.x = s.Solver.x))
    seq;
  Alcotest.(check bool) "poisoned rhs broke down" false seq.(2).Solver.converged;
  Alcotest.(check bool) "healthy rhs converged" true seq.(0).Solver.converged

let test_solve_many_stress_mixed_outcomes () =
  (* starve the iteration budget so most solves stop at Max_iterations
     and poison one rhs: the batch must stay deterministic under the
     parallel fan-out even when no solve converges cleanly *)
  let p = grid_problem ~nx:20 ~ny:20 ~seed:6666 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 73 in
  let bs = Array.init 9 (fun _ -> random_rhs ~rng n) in
  bs.(4) <- Fault.inject_nan_rhs ~row:(n / 2) bs.(4);
  let prepared = Solver.powerrchol_prepare p in
  let seq = Solver.solve_many ~max_iter:3 prepared bs in
  let par =
    with_domains 4 (fun () -> Solver.solve_many ~max_iter:3 prepared bs)
  in
  Array.iteri
    (fun k (s : Solver.result) ->
      Alcotest.(check string)
        (Printf.sprintf "stress rhs %d status" k)
        (Krylov.Pcg.status_to_string s.Solver.status)
        (Krylov.Pcg.status_to_string par.(k).Solver.status);
      Alcotest.(check bool)
        (Printf.sprintf "stress rhs %d bit-identical" k)
        true (par.(k).Solver.x = s.Solver.x))
    seq;
  Alcotest.(check bool) "budget-starved rhs did not converge" false
    seq.(0).Solver.converged;
  Alcotest.(check bool) "poisoned rhs did not converge" false
    seq.(4).Solver.converged

(* ---- batched-solve telemetry across domain counts ---- *)

let profiled_batch ~domains ?(tracing = false) () =
  let p = grid_problem ~nx:25 ~ny:25 ~seed:7777 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 79 in
  let bs = Array.init 7 (fun _ -> random_rhs ~rng n) in
  let prepared = Solver.powerrchol_prepare p in
  with_domains domains (fun () ->
      if tracing then Obs.set_tracing true;
      Fun.protect ~finally:(fun () -> if tracing then Obs.set_tracing false)
        (fun () ->
          Solver.with_obs ~meta_of:(fun _ -> []) (fun () ->
              Solver.solve_many prepared bs)))

let test_profiled_batch_counters_deterministic () =
  (* The old layer had to turn itself off during the parallel fan-out;
     the per-domain stores must now report the same record at any width:
     merged counter totals bit-identical to the sequential run (only the
     par/ scheduling counters — busy seconds, imbalance — are
     width-specific), with a span for every individual solve. *)
  let results1, record1 = profiled_batch ~domains:1 () in
  let solver_counters (r : Obs.record) =
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"par/" k))
      r.Obs.counters
  in
  List.iter
    (fun d ->
      let rd, recd = profiled_batch ~domains:d () in
      Alcotest.(check bool)
        (Printf.sprintf "solutions bit-identical at %d domains" d)
        true
        (Array.for_all2
           (fun (a : Solver.result) (b : Solver.result) ->
             a.Solver.x = b.Solver.x)
           results1 rd);
      (* same counters, same totals, same first-seen order: the merge is
         root-then-slots-ascending over contiguous ascending chunks *)
      Alcotest.(check (list (pair string (float 0.0))))
        (Printf.sprintf "counter totals bit-identical at %d domains" d)
        (solver_counters record1) (solver_counters recd);
      (* every rhs got its own span, under the batch span *)
      for k = 0 to Array.length results1 - 1 do
        let path = Printf.sprintf "solve_many/solve#%d" k in
        Alcotest.(check bool)
          (Printf.sprintf "span %s present at %d domains" path d)
          true
          (List.exists (fun s -> s.Obs.path = path) recd.Obs.spans)
      done;
      (* the per-rhs latency histogram counts every solve *)
      (match List.assoc_opt "solve_many/solve_seconds" recd.Obs.hists with
       | Some h ->
         Alcotest.(check int)
           (Printf.sprintf "latency histogram counts the batch at %d" d)
           (Array.length results1) (Obs.Hist.count h)
       | None -> Alcotest.fail "solve_many/solve_seconds histogram missing");
      if d >= 2 then begin
        (* scheduling telemetry: per-domain busy seconds + imbalance *)
        Alcotest.(check bool)
          (Printf.sprintf "par/busy_s#0 present at %d domains" d)
          true
          (List.mem_assoc "par/busy_s#0" recd.Obs.counters);
        Alcotest.(check bool)
          (Printf.sprintf "par/busy_s#1 present at %d domains" d)
          true
          (List.mem_assoc "par/busy_s#1" recd.Obs.counters);
        match List.assoc_opt "par/imbalance" recd.Obs.counters with
        | Some r -> Alcotest.(check bool) "imbalance >= 1" true (r >= 1.0)
        | None -> Alcotest.fail "par/imbalance missing at >= 2 domains"
      end)
    [ 2; 3 ]

let test_trace_tracks_per_domain () =
  let _, _ = profiled_batch ~domains:2 ~tracing:true () in
  (* with_obs restores the previous enabled state but the trace buffers
     survive until the next reset; inspect them before other tests run *)
  let events = Obs.Trace.events () in
  Fun.protect ~finally:(fun () -> Obs.reset ())
  @@ fun () ->
  Alcotest.(check bool) "trace recorded events" true (events <> []);
  let tracks =
    List.sort_uniq compare
      (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.track) events)
  in
  Alcotest.(check bool)
    (Printf.sprintf "worker tracks present (got %d track(s))"
       (List.length tracks))
    true
    (List.exists (fun t -> t >= 1) tracks);
  match Obs.Trace.validate (Obs.Trace.to_json ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "multi-domain trace invalid: %s" msg

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for partition" `Quick
            test_parallel_for_partition;
          Alcotest.test_case "set_default_domains sets the width" `Quick
            test_set_default_domains;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_for_exception;
          Alcotest.test_case "nested calls inline" `Quick
            test_nested_calls_inline;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "vec kernels match seq" `Quick
            test_vec_kernels_match_seq;
          Alcotest.test_case "gather spmv = scatter" `Quick
            test_spmv_gather_matches_scatter;
          Alcotest.test_case "apply_preconditioner = seq" `Quick
            test_apply_preconditioner_matches_seq;
          Alcotest.test_case "diag cached" `Quick test_diag_cached;
          Alcotest.test_case "length checks raise" `Quick test_length_checks;
        ] );
      ( "solves",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_solve_deterministic_across_domains;
          Alcotest.test_case "keyed rng deterministic across domains" `Quick
            test_keyed_rng_deterministic_across_domains;
          Alcotest.test_case "solve_many parallel = seq" `Quick
            test_solve_many_parallel_matches_seq;
          Alcotest.test_case "solve_many mixed-outcome stress" `Quick
            test_solve_many_stress_mixed_outcomes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "profiled batch deterministic across domains"
            `Quick test_profiled_batch_counters_deterministic;
          Alcotest.test_case "trace tracks per domain" `Quick
            test_trace_tracks_per_domain;
        ] );
    ]
