type prepared = {
  solver_name : string;
  problem : Sddm.Problem.t;
  precond : Krylov.Precond.t;
  workspace : Krylov.Pcg.Workspace.t;
  t_reorder : float;
  t_precond : float;
  factor_nnz : int;
}

type t = {
  name : string;
  prepare : Sddm.Problem.t -> prepared;
}

type result = {
  solver : string;
  x : Sparse.Vec.t;
  iterations : int;
  status : Krylov.Pcg.status;
  converged : bool;
  residual : float;
  t_reorder : float;
  t_precond : float;
  t_iterate : float;
  t_total : float;
  factor_nnz : int;
}

let default_seed = 20240623

let now = Unix.gettimeofday

let make_prepared ~solver_name problem ~precond ~t_reorder ~t_precond
    ~factor_nnz =
  (* every prepare ends here, so the preconditioner size ratio lands in
     the record whichever solver ran *)
  if Obs.enabled () then
    Obs.gauge "precond_nnz_ratio"
      (float_of_int factor_nnz
      /. float_of_int (max 1 (Sddm.Problem.nnz problem)));
  {
    solver_name;
    problem;
    precond;
    workspace = Krylov.Pcg.Workspace.create (Sddm.Problem.n problem);
    t_reorder;
    t_precond;
    factor_nnz;
  }

let prepare solver problem =
  Obs.span "prepare" (fun () -> solver.prepare problem)

let solve_prepared_ws ?rtol ?(max_iter = 500) ?deadline ?x0 ?b ~workspace
    (p : prepared) =
  let problem = p.problem in
  let n = Sddm.Problem.n problem in
  let b = match b with Some b -> b | None -> problem.Sddm.Problem.b in
  if Sparse.Vec.length b <> n then
    invalid_arg
      (Printf.sprintf
         "Solver.solve_prepared: rhs length %d, system dimension %d"
         (Sparse.Vec.length b) n);
  let x, warm_start =
    match x0 with
    | Some v ->
      if Sparse.Vec.length v <> n then
        invalid_arg
          (Printf.sprintf
             "Solver.solve_prepared: x0 length %d, system dimension %d"
             (Sparse.Vec.length v) n);
      (Sparse.Vec.copy v, true)
    | None -> (Sparse.Vec.create n, false)
  in
  let t0 = now () in
  let pcg =
    Obs.span "pcg" (fun () ->
        Krylov.Pcg.solve_operator_into ?rtol ~max_iter ?deadline ~warm_start
          ~workspace ~x
          ~apply_a:(Sparse.Csc.spmv_sym_into problem.Sddm.Problem.a)
          ~b ~precond:p.precond ())
  in
  let t_iterate = now () -. t0 in
  {
    solver = p.solver_name;
    x = pcg.Krylov.Pcg.x;
    iterations = pcg.Krylov.Pcg.iterations;
    status = pcg.Krylov.Pcg.status;
    converged = pcg.Krylov.Pcg.converged;
    residual = Sddm.Problem.residual_norm_against problem ~b pcg.Krylov.Pcg.x;
    (* marginal-cost semantics: the preparation was paid once and lives on
       the handle, so a prepared solve reports zero reorder/factor time
       and t_total = t_iterate. Summing many solve_prepared results plus
       one (t_reorder + t_precond) from the handle gives the honest
       amortized total. *)
    t_reorder = 0.0;
    t_precond = 0.0;
    t_iterate;
    t_total = t_iterate;
    factor_nnz = p.factor_nnz;
  }

let solve_prepared ?rtol ?max_iter ?deadline ?x0 ?b (p : prepared) =
  solve_prepared_ws ?rtol ?max_iter ?deadline ?x0 ?b ~workspace:p.workspace p

let solve_many ?rtol ?max_iter ?deadline (p : prepared) bs =
  let nb = Array.length bs in
  let obs = Obs.enabled () in
  (* Each solve runs in its own "solve#k" span (k = global batch index)
     and logs its wall time into the "solve_seconds" latency histogram.
     On the parallel path the spans land in per-chunk Obs worker stores
     (see Par.parallel_for), which Obs.capture merges deterministically —
     since every solve#k path is unique, merged counter totals are
     bit-identical to the sequential run at any domain count. *)
  let solve_one ~workspace k b =
    let t0 = if obs then Obs.now () else 0.0 in
    let r =
      Obs.span
        (Printf.sprintf "solve#%d" k)
        (fun () -> solve_prepared_ws ?rtol ?max_iter ?deadline ~b ~workspace p)
    in
    if obs then Obs.observe "solve_seconds" (Obs.now () -. t0);
    r
  in
  Obs.span "solve_many" (fun () ->
      if
        nb <= 1
        || Par.effective_domains () = 1
        || not (Par.runs_parallel (Par.default ()))
      then Array.mapi (fun k b -> solve_one ~workspace:p.workspace k b) bs
      else begin
        (* Fan the batch across the pool, one contiguous chunk of
           right-hand sides per domain. Each chunk gets its own PCG
           workspace (the handle's single workspace serves one solve at
           a time) and runs the same sequential solves as the loop
           above, so the batch results are bit-identical to it at any
           domain count. *)
        let n = Sddm.Problem.n p.problem in
        let results = Array.make nb None in
        Par.parallel_for (Par.default ()) ~lo:0 ~hi:nb (fun lo hi ->
            let workspace = Krylov.Pcg.Workspace.create n in
            for k = lo to hi - 1 do
              results.(k) <- Some (solve_one ~workspace k bs.(k))
            done);
        Array.map (function Some r -> r | None -> assert false) results
      end)

(* The one-shot path: a fresh preparation, one prepared solve, and the
   handle's preparation times folded back so t_total is the full cost.
   It calls [solver.prepare] rather than {!prepare} so a profiled run keeps
   reorder / factor / pcg as its top-level phase spans. *)
let run ?rtol ?max_iter ?deadline solver problem =
  let p = solver.prepare problem in
  let r = solve_prepared ?rtol ?max_iter ?deadline p in
  {
    r with
    t_reorder = p.t_reorder;
    t_precond = p.t_precond;
    t_total = p.t_reorder +. p.t_precond +. r.t_iterate;
  }

(* ---- orderings ---- *)

type ordering =
  | Amd
  | Natural
  | Degree_sort
  | Rcm
  | Nested_dissection
  | Partitioned

let ordering_name = function
  | Amd -> "amd"
  | Natural -> "natural"
  | Degree_sort -> "alg4"
  | Rcm -> "rcm"
  | Nested_dissection -> "nd"
  | Partitioned -> "part"

let apply_ordering ordering g =
  match ordering with
  | Amd -> Ordering.Amd.order g
  | Natural -> Ordering.Natural.order g
  | Degree_sort -> Ordering.Degree_sort.order g
  | Rcm -> Ordering.Rcm.order g
  | Nested_dissection -> Ordering.Nested_dissection.order g
  | Partitioned -> Ordering.Partitioned.order g

(* ---- randomized-Cholesky solvers ---- *)

(* The one randomized-Cholesky preparation; every solver below and the
   engine's sessions go through it. *)
let rand_chol_prepare ~name ~order
    ~(factorize : rng:Rng.t -> Sddm.Graph.t -> d:float array -> 'f) ~lower
    ~seed problem =
  let g = problem.Sddm.Problem.graph in
  let t0 = now () in
  let perm = Obs.span "reorder" (fun () -> order g) in
  let t1 = now () in
  let f =
    Obs.span "factor" (fun () ->
        let gp = Sddm.Graph.permute g perm in
        let d = problem.Sddm.Problem.d in
        let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
        factorize ~rng:(Rng.create seed) gp ~d:dp)
  in
  let t2 = now () in
  let l = lower f in
  ( perm,
    f,
    make_prepared ~solver_name:name problem
      ~precond:(Krylov.Precond.of_factor ~name ~perm l)
      ~t_reorder:(t1 -. t0) ~t_precond:(t2 -. t1)
      ~factor_nnz:(Factor.Lower.nnz l) )

let rand_chol_solver ~name ~order ~factorize ?(seed = default_seed) () =
  let prepare problem =
    let _, _, p =
      rand_chol_prepare ~name ~order ~factorize ~lower:Fun.id ~seed problem
    in
    p
  in
  { name; prepare }

let rand_chol_custom ~name ~sort ~sampling ~ordering ?seed () =
  rand_chol_solver ~name ~order:(apply_ordering ordering)
    ~factorize:(Factor.Rand_chol.factorize ~sort ~sampling)
    ?seed ()

let rchol ?(ordering = Amd) ?seed () =
  rand_chol_solver
    ~name:(Printf.sprintf "rchol(%s)" (ordering_name ordering))
    ~order:(apply_ordering ordering) ~factorize:Factor.Rchol.factorize ?seed ()

let lt_rchol ?(ordering = Amd) ?seed () =
  rand_chol_solver
    ~name:(Printf.sprintf "lt-rchol(%s)" (ordering_name ordering))
    ~order:(apply_ordering ordering) ~factorize:Factor.Lt_rchol.factorize
    ?seed ()

let default_heavy_factor = 10.0

(* Partitioned = recursive bisection with Alg. 4 degree sort inside each
   block: the local fill behavior of plain Alg. 4, and ECO locality
   (DESIGN.md §14). *)
let powerrchol_order ?(heavy_factor = default_heavy_factor) g =
  Ordering.Partitioned.order ~heavy_factor g

let powerrchol_with ~order ?seed () =
  rand_chol_solver ~name:"powerrchol" ~order
    ~factorize:Factor.Lt_rchol.factorize ?seed ()

let powerrchol ?heavy_factor ?seed () =
  powerrchol_with ~order:(powerrchol_order ?heavy_factor) ?seed ()

let powerrchol_prepare ?seed problem = (powerrchol ?seed ()).prepare problem

(* ---- feGRASS solvers ---- *)

let fegrass_prepare ~name ~recover_fraction ~factorize problem =
  let t0 = now () in
  let sp, sparsifier_a =
    Obs.span "factor" (fun () ->
        let sp =
          Fegrass.sparsify ~recover_fraction problem.Sddm.Problem.graph
        in
        (sp, Sddm.Graph.to_sddm sp.Fegrass.graph problem.Sddm.Problem.d))
  in
  let t1 = now () in
  (* The sparsifier is near-tree; AMD keeps its exact factor sparse. The
     reordering time is charged to t_reorder like the paper's tables. *)
  let perm = Obs.span "reorder" (fun () -> Ordering.Amd.order sp.Fegrass.graph) in
  let t2 = now () in
  let l =
    Obs.span "factor" (fun () ->
        factorize (Sparse.Csc.permute_sym sparsifier_a perm))
  in
  let t3 = now () in
  make_prepared ~solver_name:name problem
    ~precond:(Krylov.Precond.of_factor ~name:"fegrass" ~perm l)
    ~t_reorder:(t2 -. t1)
    ~t_precond:(t3 -. t2 +. (t1 -. t0))
    ~factor_nnz:(Factor.Lower.nnz l)

let fegrass ?(recover_fraction = 0.02) () =
  {
    name = "fegrass";
    prepare =
      fegrass_prepare ~name:"fegrass" ~recover_fraction
        ~factorize:Factor.Chol.factorize;
  }

let fegrass_ichol ?(recover_fraction = 0.5) ?(drop_tol = 8.5e-6) () =
  {
    name = "fegrass-ichol";
    prepare =
      fegrass_prepare ~name:"fegrass-ichol" ~recover_fraction
        ~factorize:(Factor.Ichol.factorize ~drop_tol);
  }

(* ---- AMG ---- *)

let amg_pcg ?(theta = 0.08) ?smoother () =
  let prepare problem =
    let t0 = now () in
    let hierarchy =
      Obs.span "factor" (fun () ->
          Amg.build ~theta ?smoother problem.Sddm.Problem.a)
    in
    let t1 = now () in
    let precond = Amg.preconditioner hierarchy in
    make_prepared ~solver_name:"amg-pcg" problem ~precond ~t_reorder:0.0
      ~t_precond:(t1 -. t0) ~factor_nnz:precond.Krylov.Precond.nnz
  in
  { name = "amg-pcg"; prepare }

(* ---- direct & trivial baselines ---- *)

let direct () =
  let prepare problem =
    let g = problem.Sddm.Problem.graph in
    let t0 = now () in
    let perm = Obs.span "reorder" (fun () -> Ordering.Amd.order g) in
    let t1 = now () in
    let l =
      Obs.span "factor" (fun () ->
          Factor.Chol.factorize
            (Sparse.Csc.permute_sym problem.Sddm.Problem.a perm))
    in
    let t2 = now () in
    make_prepared ~solver_name:"direct" problem
      ~precond:(Krylov.Precond.of_factor ~name:"direct" ~perm l)
      ~t_reorder:(t1 -. t0) ~t_precond:(t2 -. t1)
      ~factor_nnz:(Factor.Lower.nnz l)
  in
  { name = "direct"; prepare }

let jacobi () =
  let prepare problem =
    let t0 = now () in
    let precond =
      Obs.span "factor" (fun () -> Krylov.Precond.jacobi problem.Sddm.Problem.a)
    in
    make_prepared ~solver_name:"jacobi" problem ~precond ~t_reorder:0.0
      ~t_precond:(now () -. t0) ~factor_nnz:precond.Krylov.Precond.nnz
  in
  { name = "jacobi"; prepare }

(* ---- hardened solve path: diagnose, escalate, verify ---- *)

type robust_result = {
  diagnostics : Robust.Diagnose.report;
  outcome : robust_outcome;
}

and robust_outcome =
  | Robust_solved of {
      x : Sparse.Vec.t;
      winner : string;
      iterations : int;
      residual : float;
      attempts : Robust.Fallback.attempt list;
    }
  | Robust_rejected of { reasons : string list }
  | Robust_exhausted of { attempts : Robust.Fallback.attempt list }

let robust_ok r = match r.outcome with Robust_solved _ -> true | _ -> false

(* A fallback rung over any preparation function: prepare, solve, report.
   Exceptions from the preparation (factorization breakdowns) are
   classified by Robust.Fallback.run like any rung failure. *)
let rung ?deadline ~rtol ~max_iter ~name prepare_fn =
  {
    Robust.Fallback.name;
    solve =
      (fun problem ->
        let r = solve_prepared ~rtol ~max_iter ?deadline (prepare_fn problem) in
        {
          Robust.Fallback.x = r.x;
          iterations = r.iterations;
          note = Krylov.Pcg.status_to_string r.status;
        });
  }

(* Deterministic seed derivation for the reseed-and-retry rungs. *)
let reseed seed i = seed + (1000003 * (i + 1))

let robust_retries = 2

(* One island's chain: powerrchol -> reseed-and-retry x robust_retries ->
   rchol(amd) -> jacobi -> direct. The powerrchol rungs share the
   island's one lazy ordering: reordering is deterministic and
   seed-independent, so a reseed re-runs only the randomized
   factorization. A caller's handle serves only the system it was
   prepared for, so on a disconnected grid, where the chains see islands,
   the first rung prepares like the others. *)
let robust_rungs ?prepared ?deadline ~seed ~rtol ~max_iter island =
  let ordered = lazy (powerrchol_order island.Sddm.Problem.graph) in
  let powerrchol_rung ?prepared ~name seed =
    rung ?deadline ~rtol ~max_iter ~name (fun problem ->
        match prepared with
        | Some (p : prepared) when p.problem == problem -> p
        | _ ->
          if Lazy.is_val ordered then Obs.count "robust/perm_reuse" 1;
          let order _ = Lazy.force ordered in
          (powerrchol_with ~order ~seed ()).prepare problem)
  in
  let baseline solver =
    rung ?deadline ~rtol ~max_iter ~name:solver.name solver.prepare
  in
  powerrchol_rung ?prepared ~name:"powerrchol" seed
  :: List.init robust_retries (fun i ->
         powerrchol_rung
           ~name:(Printf.sprintf "powerrchol(reseed %d)" (i + 1))
           (reseed seed i))
  @ [
      baseline (rchol ~ordering:Amd ~seed ());
      baseline (jacobi ());
      baseline (direct ());
    ]

(* Fatal pre-flight diagnostics: a structured rejection, nothing solved. *)
let rejected diagnostics =
  {
    diagnostics;
    outcome =
      Robust_rejected
        {
          reasons =
            List.map Robust.Diagnose.issue_to_string
              (Robust.Diagnose.fatal_issues diagnostics);
        };
  }

let solve_robust ?(rtol = 1e-6) ?(max_iter = 500) ?(seed = default_seed)
    ?deadline ?prepared problem =
  let diagnostics = Robust.Diagnose.of_problem problem in
  if Robust.Diagnose.has_fatal diagnostics then rejected diagnostics
  else begin
    (* Every grounded island runs its own chain, and the solutions are
       scattered back (per-island rtol implies the global rtol because the
       islands are orthogonal blocks of A). A connected system is its one
       island: its attempts keep their rung names, and its solution and
       verified residual are the chain's own. *)
    let comps = Array.to_list (Robust.Diagnose.split_components problem) in
    let outcomes =
      List.map
        (fun (c : Robust.Diagnose.component) ->
          Robust.Fallback.run ~rtol ?deadline
            ~rungs:
              (robust_rungs ?prepared ?deadline ~seed ~rtol ~max_iter c.problem)
            c.problem)
        comps
    in
    let attempts =
      match outcomes with
      | [ o ] -> o.attempts
      | _ ->
        List.concat
          (List.mapi
             (fun i (o : Robust.Fallback.outcome) ->
               List.map
                 (fun (a : Robust.Fallback.attempt) ->
                   { a with rung = Printf.sprintf "c%d/%s" i a.rung })
                 o.attempts)
             outcomes)
    in
    if List.for_all Robust.Fallback.succeeded outcomes then begin
      let xs =
        List.map (fun (o : Robust.Fallback.outcome) -> Option.get o.x) outcomes
      in
      let x, residual =
        match (xs, outcomes) with
        | [ x ], [ o ] -> (x, o.residual)
        | _ ->
          let x =
            Robust.Diagnose.assemble ~n:(Sddm.Problem.n problem)
              (List.combine comps xs)
          in
          (x, Sddm.Problem.residual_norm problem x)
      in
      let iterations =
        List.fold_left
          (fun acc (o : Robust.Fallback.outcome) -> acc + o.iterations)
          0 outcomes
      in
      let winner =
        List.map (fun (o : Robust.Fallback.outcome) -> Option.get o.winner)
          outcomes
        |> List.sort_uniq compare |> String.concat "+"
      in
      {
        diagnostics;
        outcome = Robust_solved { x; winner; iterations; residual; attempts };
      }
    end
    else { diagnostics; outcome = Robust_exhausted { attempts } }
  end

let solve_matrix_robust ?rtol ?seed ?(name = "matrix") ~a ~b () =
  (* Diagnose the raw pair BEFORE validation so corrupted input yields the
     structured report instead of an exception out of [Problem.of_matrix]. *)
  let diagnostics = Robust.Diagnose.run ~a ~b in
  if Robust.Diagnose.has_fatal diagnostics then rejected diagnostics
  else
    match Sddm.Problem.of_matrix ~name ~a ~b with
    | problem -> solve_robust ?rtol ?seed problem
    | exception Invalid_argument msg ->
      (* diagnostics missed what validation caught: still a structured
         rejection, with the validator's message as the reason *)
      { diagnostics; outcome = Robust_rejected { reasons = [ msg ] } }

(* ---- telemetry ---- *)

(* A profiled run owns the global Obs store for its duration: reset,
   enable, run, snapshot. The previous enabled state is restored so
   nesting a profiled solve inside other instrumented code stays sane. *)
let with_obs ~meta_of f =
  let was = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  match f () with
  | v ->
    let record = Obs.capture ~meta:(meta_of v) () in
    Obs.set_enabled was;
    (v, record)
  | exception exn ->
    Obs.set_enabled was;
    raise exn

let result_meta problem (r : result) =
  [
    ("solver", Obs.Json.Str r.solver);
    ("case", Obs.Json.Str problem.Sddm.Problem.name);
    ("n", Obs.Json.Int (Sddm.Problem.n problem));
    ("nnz", Obs.Json.Int (Sddm.Problem.nnz problem));
    ("iterations", Obs.Json.Int r.iterations);
    ("status", Obs.Json.Str (Krylov.Pcg.status_to_string r.status));
    ("converged", Obs.Json.Bool r.converged);
    ("relres", Obs.Json.Float r.residual);
    ("t_reorder", Obs.Json.Float r.t_reorder);
    ("t_factor", Obs.Json.Float r.t_precond);
    ("t_iterate", Obs.Json.Float r.t_iterate);
    ("t_total", Obs.Json.Float r.t_total);
    ("factor_nnz", Obs.Json.Int r.factor_nnz);
    ("par_backend", Obs.Json.Str Par.backend);
    ("domains", Obs.Json.Int (Par.effective_domains ()));
  ]

let robust_meta_of ~case ~n ~nnz (r : robust_result) =
  let common =
    [
      ("mode", Obs.Json.Str "robust");
      ("case", Obs.Json.Str case);
      ("n", Obs.Json.Int n);
      ("nnz", Obs.Json.Int nnz);
      ("par_backend", Obs.Json.Str Par.backend);
      ("domains", Obs.Json.Int (Par.effective_domains ()));
    ]
  in
  common
  @
  match r.outcome with
  | Robust_solved { winner; iterations; residual; attempts; _ } ->
    [
      ("outcome", Obs.Json.Str "solved");
      ("winner", Obs.Json.Str winner);
      ("iterations", Obs.Json.Int iterations);
      ("relres", Obs.Json.Float residual);
      ("failed_rungs", Obs.Json.Int (List.length attempts));
    ]
  | Robust_rejected { reasons } ->
    [
      ("outcome", Obs.Json.Str "rejected");
      ("reasons", Obs.Json.List (List.map (fun m -> Obs.Json.Str m) reasons));
    ]
  | Robust_exhausted { attempts } ->
    [
      ("outcome", Obs.Json.Str "exhausted");
      ("failed_rungs", Obs.Json.Int (List.length attempts));
    ]

(* Deterministic one-line rendering of the whole robust run: diagnostic
   summary, every failed rung with its reason, and the final verdict. Used
   by the determinism tests (byte-identical across equal-seed runs) and the
   CLI trace output. *)
let robust_trace r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "diagnose: n=%d nnz=%d components=%d issues=[%s] | "
       r.diagnostics.Robust.Diagnose.n r.diagnostics.Robust.Diagnose.nnz
       r.diagnostics.Robust.Diagnose.components
       (String.concat "; "
          (List.map Robust.Diagnose.issue_to_string
             r.diagnostics.Robust.Diagnose.issues)));
  let add_attempts attempts =
    List.iter
      (fun (a : Robust.Fallback.attempt) ->
        Buffer.add_string buf
          (Printf.sprintf "failed %s: %s; " a.Robust.Fallback.rung
             (Robust.Fallback.failure_to_string a.Robust.Fallback.failure)))
      attempts
  in
  (match r.outcome with
   | Robust_rejected { reasons } ->
     Buffer.add_string buf ("rejected: " ^ String.concat "; " reasons)
   | Robust_solved { winner; iterations; residual; attempts; _ } ->
     add_attempts attempts;
     Buffer.add_string buf
       (Printf.sprintf "recovered by %s: %d iterations, residual %.6e" winner
          iterations residual)
   | Robust_exhausted { attempts } ->
     add_attempts attempts;
     Buffer.add_string buf "exhausted: no rung produced a verified solution");
  Buffer.contents buf

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>solver     : %s@,converged  : %b (%d iterations, residual %.3e)@,\
     status     : %s@,\
     reordering : %.3f s@,factorize  : %.3f s (factor nnz %d)@,\
     iteration  : %.3f s@,total      : %.3f s@]"
    r.solver r.converged r.iterations r.residual
    (Krylov.Pcg.status_to_string r.status)
    r.t_reorder r.t_precond r.factor_nnz r.t_iterate r.t_total

let pp_robust fmt r =
  Format.fprintf fmt "@[<v>%a@," Robust.Diagnose.pp_report r.diagnostics;
  let attempts_block attempts =
    List.iter
      (fun (a : Robust.Fallback.attempt) ->
        Format.fprintf fmt "  ✗ %s: %s@," a.Robust.Fallback.rung
          (Robust.Fallback.failure_to_string a.Robust.Fallback.failure))
      attempts
  in
  (match r.outcome with
   | Robust_solved { winner; iterations; residual; attempts; _ } ->
     attempts_block attempts;
     Format.fprintf fmt
       "  ✓ recovered by %s: %d iterations, verified residual %.3e" winner
       iterations residual
   | Robust_rejected { reasons } ->
     Format.fprintf fmt "rejected by pre-flight diagnostics:@,";
     List.iter (fun m -> Format.fprintf fmt "  ✗ %s@," m) reasons
   | Robust_exhausted { attempts } ->
     attempts_block attempts;
     Format.fprintf fmt "  ✗ fallback chain exhausted");
  Format.fprintf fmt "@]"
