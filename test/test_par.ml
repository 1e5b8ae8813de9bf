(* Parallel-backend tests: region semantics, kernel bit-identity between the
   sequential and gather forms and across domain counts, determinism of
   the solves across domain counts, and a fault-injected stress run of the
   batched solve path. *)

module Solver = Powerrchol.Solver

(* Every test that widens the region restores its width, so suites stay
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

(* ---- the parallel region ---- *)

let test_parallel_for_partition () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let hits = Array.make 1000 0 in
          Par.parallel_for ~lo:0 ~hi:1000 (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "every index covered once at %d domains" d)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    [ 1; 2; 3; 5 ]

let test_set_default_domains () =
  with_domains 3 (fun () ->
      Alcotest.(check int) "effective width" 3 (Par.effective_domains ());
      Par.set_default_domains 2;
      Alcotest.(check int) "reset width" 2 (Par.effective_domains ()));
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Par.set_default_domains: domains must be >= 1")
    (fun () -> Par.set_default_domains 0)

(* The runtime gives each spawned domain the next unique id, so the ids of
   two probe domains spawned around a region differ by one more than the
   number of domains the region spawned. *)
let probe_domain_id () =
  (Domain.join (Domain.spawn (fun () -> Domain.self ())) :> int)

let test_region_spawns_one_domain_per_chunk () =
  (* [chunks] is min width length, except where chunks of ceil (length /
     width) run out first: 5 over width 4 is 2 + 2 + 1 *)
  List.iter
    (fun (width, len, chunks) ->
      with_domains width (fun () ->
          let owner = Array.make len (-1) in
          let before = probe_domain_id () in
          Par.parallel_for ~lo:0 ~hi:len (fun lo hi ->
              let me = (Domain.self () :> int) in
              for i = lo to hi - 1 do
                owner.(i) <- me
              done);
          let spawned = probe_domain_id () - before - 1 in
          let seen = List.sort_uniq compare (Array.to_list owner) in
          let shape = Printf.sprintf "%d over width %d" len width in
          Alcotest.(check int)
            (shape ^ ": one domain per chunk")
            chunks (List.length seen);
          Alcotest.(check bool)
            (shape ^ ": chunk 0 on the caller")
            true
            (owner.(0) = (Domain.self () :> int));
          Alcotest.(check int)
            (shape ^ ": no idle domain spawned")
            (chunks - 1) spawned))
    [
      (1, 5, 1); (2, 1, 1); (2, 2, 2); (3, 2, 2); (5, 3, 3); (4, 4, 4);
      (3, 9, 3); (4, 5, 3); (5, 12, 4);
    ]

let test_parallel_for_exception () =
  with_domains 3 (fun () ->
      (* the chunks in [slow] spin for 50 ms and those in [fails] then
         raise: the caller gets the first failure in chunk order, once
         every chunk has finished *)
      let region ~slow ~fails =
        let finished = Atomic.make 0 in
        match
          Par.parallel_for ~lo:0 ~hi:3 (fun lo _ ->
              if List.mem lo slow then begin
                let t0 = Obs.now () in
                while Obs.now () -. t0 < 0.05 do
                  Domain.cpu_relax ()
                done
              end;
              Atomic.incr finished;
              if List.mem lo fails then failwith (Printf.sprintf "chunk %d" lo))
        with
        | () -> Alcotest.fail "the failing region returned"
        | exception Failure msg -> (msg, Atomic.get finished)
      in
      Alcotest.(check (pair string int))
        "a failing caller chunk waits for the join" ("chunk 0", 3)
        (region ~slow:[ 1; 2 ] ~fails:[ 0; 2 ]);
      Alcotest.(check (pair string int))
        "first failure in chunk order" ("chunk 1", 3)
        (region ~slow:[ 0; 1 ] ~fails:[ 1; 2 ]);
      let acc = Atomic.make 0 in
      Par.parallel_for ~lo:0 ~hi:3 (fun lo hi ->
          for _ = lo to hi - 1 do
            Atomic.incr acc
          done);
      Alcotest.(check int) "the next region runs" 3 (Atomic.get acc))

let test_nested_region_inline () =
  with_domains 2 (fun () ->
      let inline = Array.make 2 false in
      Par.parallel_for ~lo:0 ~hi:2 (fun lo _ ->
          (* a region opened inside a chunk is one call on that chunk's
             domain *)
          let me = Domain.self () in
          let calls = ref [] in
          Par.parallel_for ~lo:0 ~hi:10 (fun clo chi ->
              calls := (clo, chi, Domain.self () = me) :: !calls);
          inline.(lo) <- !calls = [ (0, 10, true) ]);
      Alcotest.(check (array bool))
        "nested region runs inline on its chunk's domain" [| true; true |]
        inline)

let test_concurrent_region_inline () =
  with_domains 2 (fun () ->
      let calls = ref [] in
      Par.parallel_for ~lo:0 ~hi:2 (fun lo _ ->
          if lo = 0 then
            (* another thread opens a region while this one fans out *)
            Thread.join
              (Thread.create
                 (fun () ->
                   Par.parallel_for ~lo:0 ~hi:4 (fun clo chi ->
                       calls := (clo, chi, Domain.self ()) :: !calls))
                 ()));
      Alcotest.(check bool)
        "a region opened from another thread meanwhile runs inline" true
        (!calls = [ (0, 4, Domain.self ()) ]))

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
     whose chunks run on domains of their own. *)
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
        Par.parallel_for ~lo:0 ~hi:10_000 (fun clo chi ->
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

let same_bits x y =
  Sparse.Vec.length x = Sparse.Vec.length y
  && List.for_all
       (fun i ->
         Int64.bits_of_float (Sparse.Vec.get x i)
         = Int64.bits_of_float (Sparse.Vec.get y i))
       (List.init (Sparse.Vec.length x) Fun.id)

(* Any width, any batch length (empty and shorter than the width
   included): result k of a batch is the lone solve of rhs k, bit for
   bit. *)
let prop_solve_many_matches_alone =
  QCheck.Test.make ~name:"solve_many = solve_prepared per rhs" ~count:40
    QCheck.(quad (int_bound 10000) (int_bound 10) (int_bound 3) (int_bound 9))
    (fun (seed, side, width, nb) ->
      (* QCheck shrinks towards 0, so the ranges start at 0 *)
      let side = side + 2 and width = width + 1 in
      let n = side * side in
      let rng = Rng.create seed in
      let d =
        Array.init n (fun _ -> if Rng.bool rng then Rng.float rng else 0.0)
      in
      d.(0) <- 1.0;
      let p =
        Sddm.Problem.of_graph ~name:"mesh"
          ~graph:(Test_util.mesh_graph side side)
          ~d ~b:(Sparse.Vec.create n)
      in
      let prepared = Solver.powerrchol_prepare p in
      let bs = Array.init nb (fun _ -> random_rhs ~rng n) in
      let batch =
        with_domains width (fun () -> Solver.solve_many prepared bs)
      in
      Array.length batch = nb
      && Array.for_all2
           (fun b (r : Solver.result) ->
             let alone = Solver.solve_prepared ~b prepared in
             alone.Solver.iterations = r.Solver.iterations
             && same_bits alone.Solver.x r.Solver.x)
           bs batch)

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

let test_batch_then_lone_solve_same_record () =
  (* A batch, then a lone solve, in one profiled run: the chunks fold
     into the caller's store at the region's join, so the lone solve's
     paths come after the batch's at every width, as at one domain. *)
  let p = grid_problem ~nx:20 ~ny:20 ~seed:2929 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 31 in
  let bs = Array.init 5 (fun _ -> random_rhs ~rng n) in
  let prepared = Solver.powerrchol_prepare p in
  let record domains =
    with_domains domains (fun () ->
        snd
          (Solver.with_obs ~meta_of:(fun _ -> []) (fun () ->
               ignore (Solver.solve_many prepared bs);
               Solver.solve_prepared prepared)))
  in
  let spans (r : Obs.record) = List.map (fun s -> s.Obs.path) r.Obs.spans in
  let hists (r : Obs.record) = List.map fst r.Obs.hists in
  let solver_counters (r : Obs.record) =
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"par/" k))
      r.Obs.counters
  in
  let r1 = record 1 in
  List.iter
    (fun d ->
      let rd = record d in
      Alcotest.(check (list string))
        (Printf.sprintf "span paths in order at %d domains" d)
        (spans r1) (spans rd);
      Alcotest.(check (list string))
        (Printf.sprintf "histogram paths in order at %d domains" d)
        (hists r1) (hists rd);
      Alcotest.(check (list (pair string (float 0.0))))
        (Printf.sprintf "counters in order, same totals, at %d domains" d)
        (solver_counters r1) (solver_counters rd))
    [ 2; 3 ]

let test_two_batches_same_counters () =
  (* Two batches in one profiled run: a gauge a chunk writes (PCG's
     relres under solve_many/solve#k) holds the second batch's value at
     every width, as at one domain, while counts add over both. *)
  let p = grid_problem ~nx:14 ~ny:14 ~seed:3030 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 41 in
  let bs1 = Array.init 4 (fun _ -> random_rhs ~rng n) in
  let bs2 = Array.init 4 (fun _ -> random_rhs ~rng n) in
  let prepared = Solver.powerrchol_prepare p in
  let counters domains =
    with_domains domains (fun () ->
        let (), r =
          Solver.with_obs ~meta_of:(fun _ -> []) (fun () ->
              ignore (Solver.solve_many prepared bs1);
              ignore (Solver.solve_many prepared bs2))
        in
        List.sort compare
          (List.filter
             (fun (k, _) -> not (String.starts_with ~prefix:"par/" k))
             r.Obs.counters))
  in
  let c1 = counters 1 in
  Alcotest.(check bool) "the batch sets relres gauges" true
    (List.exists (fun (k, _) -> String.ends_with ~suffix:"/relres" k) c1);
  List.iter
    (fun d ->
      Alcotest.(check (list (pair string (float 0.0))))
        (Printf.sprintf "counters after two batches at %d domains" d)
        c1 (counters d))
    [ 2; 3 ]

let test_trace_rings_reused_across_regions () =
  (* Two traced batches at 2 domains: chunk i keeps one ring, track i + 1,
     which the second region writes on after the first. *)
  let p = grid_problem ~nx:12 ~ny:12 ~seed:4141 () in
  let n = Sddm.Problem.n p in
  let rng = Rng.create 37 in
  let bs = Array.init 4 (fun _ -> random_rhs ~rng n) in
  let prepared = Solver.powerrchol_prepare p in
  with_domains 2 (fun () ->
      Obs.set_tracing true;
      Fun.protect
        ~finally:(fun () ->
          Obs.set_tracing false;
          Obs.reset ())
        (fun () ->
          ignore
            (Solver.with_obs ~meta_of:(fun _ -> []) (fun () ->
                 ignore (Solver.solve_many prepared bs);
                 ignore (Solver.solve_many prepared bs)));
          let begins track name =
            List.length
              (List.filter
                 (fun (e : Obs.Trace.event) ->
                   e.Obs.Trace.track = track && e.Obs.Trace.phase = 'B'
                   && e.Obs.Trace.name = name)
                 (Obs.Trace.events ()))
          in
          (* chunk 0 solves rhs 0 and 1, chunk 1 rhs 2 and 3 *)
          Alcotest.(check int) "track 1 holds both regions' solve#0" 2
            (begins 1 "solve#0");
          Alcotest.(check int) "track 2 holds both regions' solve#3" 2
            (begins 2 "solve#3");
          Alcotest.(check int) "no chunk solve on the caller's track" 0
            (begins 0 "solve#0");
          let doc = Obs.Trace.to_json () in
          let thread_names =
            match Obs.Json.member "traceEvents" doc with
            | Some (Obs.Json.List evs) ->
              List.filter_map
                (fun ev ->
                  match
                    (Obs.Json.member "name" ev, Obs.Json.member "tid" ev)
                  with
                  | Some (Obs.Json.Str "thread_name"), Some (Obs.Json.Int t)
                    ->
                    Some t
                  | _ -> None)
                evs
            | _ -> Alcotest.fail "trace has no traceEvents list"
          in
          Alcotest.(check (list int)) "each track named once" [ 0; 1; 2 ]
            thread_names;
          match Obs.Trace.validate doc with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "two-region trace invalid: %s" msg))

let () =
  Alcotest.run "par"
    [
      ( "region",
        [
          Alcotest.test_case "parallel_for partition" `Quick
            test_parallel_for_partition;
          Alcotest.test_case "set_default_domains sets the width" `Quick
            test_set_default_domains;
          Alcotest.test_case "one domain per chunk" `Quick
            test_region_spawns_one_domain_per_chunk;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_for_exception;
          Alcotest.test_case "nested calls inline" `Quick
            test_nested_region_inline;
          Alcotest.test_case "concurrent region inline" `Quick
            test_concurrent_region_inline;
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
        ]
        @ Test_util.qcheck [ prop_solve_many_matches_alone ] );
      ( "telemetry",
        [
          Alcotest.test_case "profiled batch deterministic across domains"
            `Quick test_profiled_batch_counters_deterministic;
          Alcotest.test_case "trace tracks per domain" `Quick
            test_trace_tracks_per_domain;
          Alcotest.test_case "batch then lone solve, same record" `Quick
            test_batch_then_lone_solve_same_record;
          Alcotest.test_case "two batches, same counters" `Quick
            test_two_batches_same_counters;
          Alcotest.test_case "trace rings reused across regions" `Quick
            test_trace_rings_reused_across_regions;
        ] );
    ]
