(* The three in-process workloads. Each is built so that a different layer
   does most of the work:

   - cold-solve: one-shot solves on fresh grids, so ordering and
     factorization carry most of the time and PCG the rest — the paper's
     main claim, reorder plus factor time;
   - warm-rhs: one preparation, then many right-hand sides, so ordering
     and factorization are bypassed entirely and only the Krylov layer
     (SpMV, triangular solves, vector kernels) runs — an ordering or
     factor change should show no change here;
   - eco-storm: an ECO session absorbing a storm of edits, each an
     update followed by a re-solve, so every operation writes the matrix
     and the factor before it reads them — a speedup that caches derived
     factor state pays for that cache again here.

   A traced run pairs every operation: the untraced library call, then the
   same input through the composed, spanned solve of [Layers]. The two
   solutions must be bit-identical, and the two times give the tracing
   overhead with the machine's drift between them cancelled. *)

module Solver = Powerrchol.Solver
module Session = Powerrchol.Engine.Session

(* Grid size of the three workloads: about 12,000 nodes, a working set of
   about 2.5 MB, near the 2 MB per-core L2 of the README's baseline
   machine and the size of [Speed]'s kernel. At 120,000 nodes (about
   25 MB) the solves stream through a last-level cache that other tenants
   of a shared machine stream through too: in eight interleaved runs of
   warm-rhs at 120,000, 30,000 and 12,000 nodes, the median solve spread
   by 12 %, 7 % and 4 % of its median. A run also holds ten times more
   operations. *)
let target_nodes (run : Layers.run) = if run.Layers.smoke then 3_000 else 12_000

(* The side of the square [Generate.default] grid of that size. *)
let side (run : Layers.run) = if run.Layers.smoke then 40 else 107

type op = { op_s : float; ok : bool; digest : int64 }

let op_seconds ops = Array.of_list (List.map (fun o -> o.op_s) ops)
let failures ops = List.length (List.filter (fun o -> not o.ok) ops)

let solved problem b (r : Solver.result) ~op_s =
  {
    op_s;
    ok = Layers.verified ~converged:r.Solver.converged problem b r.Solver.x;
    digest = Layers.digest r.Solver.x;
  }

(* Runs [f] as operation [i] with recording on; [f] returns what
   [Layers.solve] returned: the PCG result and its true residual. *)
let traced_op i f =
  let ((r : Krylov.Pcg.result), residual), op_s =
    Layers.time (fun () -> Spans.traced (fun () -> Spans.op i f))
  in
  {
    op_s;
    ok = Layers.passes ~converged:r.Krylov.Pcg.converged ~residual;
    digest = Layers.digest r.Krylov.Pcg.x;
  }

(* Every operation is preceded by a speed probe, outside its timing. *)
let untraced_outcome (run : Layers.run) ~setup_s ~op =
  let ops =
    Layers.repeat ~seconds:run.Layers.seconds ~min_ops:3 (fun i ->
        Speed.probe ();
        op i)
  in
  let op_s = op_seconds ops in
  Layers.end_to_end ~scaled:true ~attempted:(List.length ops)
    ~failed:(failures ops) ~op_s
    ~ops_per_s:
      (float_of_int (Array.length op_s) /. Array.fold_left ( +. ) 0.0 op_s)
    ~setup_s:(setup_s ()) ~peak_rss_mb:(Layers.peak_rss_mb "self")

(* [pair state i] returns the untraced and the traced operation on input
   [i]; pairs run for the whole budget. *)
let traced_outcome (run : Layers.run) ~set_up ~pair ~extra =
  Layers.reset ();
  let state = set_up () in
  let pairs =
    Layers.repeat ~seconds:run.Layers.seconds ~min_ops:3 (pair state)
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let differ = List.filter (fun (u, t) -> u.digest <> t.digest) pairs in
  {
    Layers.attempted = 2 * List.length pairs;
    failed = failures untraced + failures traced + List.length differ;
    metrics =
      Layers.metrics ~untraced_op_s:(op_seconds untraced)
        ~traced_op_s:(op_seconds traced);
    extra = extra ();
  }

(* ---- cold-solve ---- *)

let cold (run : Layers.run) =
  let target_nodes = target_nodes run in
  let gen_s = ref [] in
  (* input [i]'s grid, timed as set-up; the previous grid and the
     generator's garbage are then collected, as they are not the solve's
     cost *)
  let grid i =
    let seed = Layers.input_seed run.Layers.seed i in
    let case = Powergrid.Suite.scale_case ~seed ~target_nodes () in
    let problem, s = Layers.time case.Powergrid.Suite.build in
    gen_s := s :: !gen_s;
    Gc.full_major ();
    problem
  in
  let solve problem =
    let r, op_s =
      Layers.time (fun () -> Solver.run (Solver.powerrchol ()) problem)
    in
    solved problem problem.Sddm.Problem.b r ~op_s
  in
  if not run.Layers.traced then
    untraced_outcome run
      ~op:(fun i -> solve (grid i))
      ~setup_s:(fun () -> Array.of_list !gen_s)
  else
    traced_outcome run ~set_up:ignore
      ~extra:(fun () -> [])
      ~pair:(fun () i ->
        let problem = grid i in
        let u = solve problem in
        Gc.full_major ();
        let b = problem.Sddm.Problem.b in
        let t =
          traced_op i (fun () ->
              let precond = Layers.prepare problem in
              let workspace =
                Krylov.Pcg.Workspace.create (Sddm.Problem.n problem)
              in
              Layers.solve ~workspace ~problem ~b ~precond)
        in
        (u, t))

(* ---- warm-rhs ---- *)

(* Set-up repeats before every [setup_every]-th operation, so that its
   samples span the run as the operations' do: a preparation's page
   faults cost half as much again in some seconds as in others on a
   shared machine, and a median over the first second of a run followed
   that. The operations keep the first preparation. *)
let setup_every = 10

(* The grid is a fixed input of the workload and the seed draws the
   right-hand sides: iteration counts differ by up to a quarter between
   generated grids, which would swamp run-to-run comparisons. *)
let warm (run : Layers.run) =
  let problem =
    (Powergrid.Suite.scale_case ~target_nodes:(target_nodes run) ())
      .Powergrid.Suite.build ()
  in
  (* a preparation from a collected heap, after a speed probe *)
  let prepare () =
    Gc.full_major ();
    Speed.probe ();
    Layers.time (fun () -> Solver.powerrchol_prepare problem)
  in
  let prepared, first_s = prepare () in
  let setup_s = ref [ first_s ] in
  let n = Sddm.Problem.n problem in
  let rhs_seed = Layers.input_seed run.Layers.seed 1 in
  let rhs j =
    let rng = Rng.keyed ~seed:rhs_seed j in
    Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5)
  in
  let solve b =
    let r, op_s = Layers.time (fun () -> Solver.solve_prepared ~b prepared) in
    solved problem b r ~op_s
  in
  if not run.Layers.traced then
    untraced_outcome run
      ~op:(fun j ->
        if j mod setup_every = setup_every - 1 then begin
          setup_s := snd (prepare ()) :: !setup_s;
          (* the repeated preparation is garbage now; collect it so that
             it is not charged to the operation *)
          Gc.full_major ()
        end;
        solve (rhs j))
      ~setup_s:(fun () -> Array.of_list !setup_s)
  else
    traced_outcome run
      ~extra:(fun () -> [])
      ~set_up:(fun () ->
        ( Spans.traced (fun () -> Layers.prepare problem),
          Krylov.Pcg.Workspace.create n ))
      ~pair:(fun (precond, workspace) j ->
        let b = rhs j in
        let u = solve b in
        let t =
          traced_op j (fun () -> Layers.solve ~workspace ~problem ~b ~precond)
        in
        (u, t))

(* ---- eco-storm ---- *)

(* Edits refactor the session's factor with its sampling choices frozen,
   which raises the iteration count by about a third over 40 edits; a run
   that got further into one storm would report slower edits. So each
   storm is [storm_length] edits on a fresh session, and storms restart
   until the run's time is up. Creating each storm's session is the
   set-up. As in warm-rhs the grid is fixed; the seed draws the storms. *)
let storm_length = 16

(* A session that [create] replaces at the start of every storm; returns
   the session for operation [i], and the closer of the last one. *)
let per_storm create =
  let current = ref None in
  let close () =
    Option.iter Session.close !current;
    current := None
  in
  let session i =
    if i mod storm_length = 0 then begin
      close ();
      Gc.full_major ();
      current := Some (create ())
    end;
    Option.get !current
  in
  (session, close)

let eco (run : Layers.run) =
  let side = side run in
  let spec = Powergrid.Generate.default ~nx:side ~ny:side ~seed:42 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let problem =
    Powergrid.Generate.circuit_to_problem ~name:"eco-storm" circuit
  in
  let storms = Hashtbl.create 4 in
  let edits i =
    let k = i / storm_length in
    let storm =
      match Hashtbl.find_opt storms k with
      | Some s -> s
      | None ->
        let seed = Layers.input_seed run.Layers.seed k in
        let s = Powergrid.Eco.storm ~seed ~spec circuit ~count:storm_length in
        Hashtbl.replace storms k s;
        s
    in
    storm.(i mod storm_length).Powergrid.Eco.edits
  in
  let setup_s = ref [] and solve_s = ref [] and columns = ref [] in
  let rungs = Hashtbl.create 4 in
  let session, close =
    per_storm (fun () ->
        let s, t = Layers.time (fun () -> Session.create problem) in
        setup_s := t :: !setup_s;
        s)
  in
  let edit i =
    let s = session i in
    let (report, r, t_solve), op_s =
      Layers.time (fun () ->
          let report = Powerrchol.Engine.update s (edits i) in
          let r, t_solve = Layers.time (fun () -> Session.solve s) in
          (report, r, t_solve))
    in
    let rung = Session.rung_name report.Session.rung in
    Hashtbl.replace rungs rung
      (1 + Option.value ~default:0 (Hashtbl.find_opt rungs rung));
    if report.Session.rung = Session.Local then
      columns := float_of_int report.Session.columns :: !columns;
    solve_s := t_solve :: !solve_s;
    let edited = Session.problem s in
    solved edited edited.Sddm.Problem.b r ~op_s
  in
  let extra () =
    let median l = Stats.median (Array.of_list l) in
    let rung name =
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt rungs name))
    in
    [
      Layers.metric "core.update_ms" "ms"
        (Layers.ms (Stats.median (Spans.durations "core.update")));
      Layers.metric "core.session_solve_ms" "ms" (Layers.ms (median !solve_s));
      Layers.metric "factor.refactor_columns" "count" (median !columns);
      Layers.metric "core.rung_rhs_only" "count" (rung "rhs-only");
      Layers.metric "core.rung_local" "count" (rung "local");
      Layers.metric "core.rung_low_rank" "count" (rung "low-rank");
      Layers.metric "core.rung_full" "count" (rung "full");
    ]
  in
  (* the traced twin: the layers a session's creation runs, measured on
     its grid, then the session itself, edited in lockstep *)
  let twin, close_twin =
    per_storm (fun () ->
        Spans.traced (fun () -> Layers.prepare_updatable problem);
        Session.create problem)
  in
  Fun.protect
    ~finally:(fun () ->
      close ();
      close_twin ())
    (fun () ->
      if not run.Layers.traced then
        untraced_outcome run ~op:edit ~setup_s:(fun () ->
            Array.of_list !setup_s)
      else
        traced_outcome run ~extra
          ~set_up:(fun () ->
            Krylov.Pcg.Workspace.create (Sddm.Problem.n problem))
          ~pair:(fun workspace i ->
            let u = edit i in
            let s = twin i in
            let t =
              traced_op i (fun () ->
                  ignore
                    (Spans.record "core.update" (fun () ->
                         Powerrchol.Engine.update s (edits i)));
                  let prepared = Session.prepared s in
                  Layers.solve ~workspace ~problem:prepared.Solver.problem
                    ~b:(Session.problem s).Sddm.Problem.b
                    ~precond:prepared.Solver.precond)
            in
            (u, t)))
