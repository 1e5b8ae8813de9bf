(* pgsolve: command-line power-grid / SDDM solver.

   Subcommands:
     generate   synthesize a power grid and write it as a SPICE netlist
     solve      solve a netlist (or a generated grid) and report IR drop
     compare    run every solver on a problem and print the timing table
     bench-case solve a named suite case (pg01..pg16, youtube, ...)

   Examples:
     pgsolve generate -o grid.sp --nx 200 --ny 200 --seed 42
     pgsolve solve grid.sp --solver powerrchol --rtol 1e-8
     pgsolve compare --case pg07
     pgsolve solve --mtx matrix.mtx *)

open Cmdliner

(* ---- shared argument definitions ---- *)

let rtol_arg =
  let doc = "PCG relative residual tolerance." in
  Arg.(value & opt float 1e-6 & info [ "rtol" ] ~docv:"TOL" ~doc)

let seed_arg =
  let doc = "Random seed (grid generation and factorization)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Worker domains for a multi-column $(b,--rhs) batch, which runs whole \
     solves per domain; everything else runs on one domain. Results are \
     bit-identical at every count. Defaults to $(b,POWERRCHOL_DOMAINS) or \
     1."
  in
  Arg.(value & opt (some string) None & info [ "domains" ] ~docv:"N" ~doc)

(* Applied before any solve runs: sets the width of a batch's parallel
   region, which spawns its domains only while it runs. Validation lives in
   Par.domains_of_string so the flag and the environment variable reject
   bad values with the same words. *)
let apply_domains = function
  | None -> ()
  | Some s -> (
    match Par.domains_of_string s with
    | Error reason ->
      Printf.eprintf "pgsolve: --domains %s\n" reason;
      exit 2
    | Ok d -> Par.set_default_domains d)

(* The solver vocabulary is shared with the pgserve daemon and its client
   through lib/proto, so '--solver' means the same thing everywhere. *)
let solver_of_tag ~seed = function
  | Proto.Powerrchol -> Powerrchol.Solver.powerrchol ~seed ()
  | Proto.Rchol -> Powerrchol.Solver.rchol ~seed ()
  | Proto.Lt_rchol -> Powerrchol.Solver.lt_rchol ~seed ()
  | Proto.Fegrass -> Powerrchol.Solver.fegrass ()
  | Proto.Fegrass_ichol -> Powerrchol.Solver.fegrass_ichol ()
  | Proto.Amg -> Powerrchol.Solver.amg_pcg ()
  | Proto.Direct -> Powerrchol.Solver.direct ()

let solver_arg =
  let doc =
    Printf.sprintf "Solver to use: %s."
      (String.concat ", " (List.map fst Proto.solver_names))
  in
  Arg.(
    value
    & opt (enum Proto.solver_names) Proto.Powerrchol
    & info [ "solver"; "s" ] ~docv:"SOLVER" ~doc)

let report_result r = Format.printf "%a@." Powerrchol.Solver.pp_result r

(* ---- generate ---- *)

let generate_cmd =
  let nx =
    Arg.(value & opt int 100 & info [ "nx" ] ~docv:"N" ~doc:"Grid width.")
  in
  let ny =
    Arg.(value & opt int 100 & info [ "ny" ] ~docv:"N" ~doc:"Grid height.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output netlist path.")
  in
  let run nx ny seed out =
    let spec = Powergrid.Generate.default ~nx ~ny ~seed in
    let circuit = Powergrid.Generate.generate_circuit spec in
    Powergrid.Netlist.write_circuit_file out circuit;
    Printf.printf "wrote %s: %d nodes, %d resistors, %d pads, %d loads\n" out
      circuit.Powergrid.Generate.n_nodes
      (Array.length circuit.Powergrid.Generate.resistors)
      (Array.length circuit.Powergrid.Generate.pads)
      (Array.length circuit.Powergrid.Generate.loads)
  in
  let doc = "Synthesize a power grid and write it as a SPICE netlist." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const run $ nx $ ny $ seed_arg $ out)

(* ---- problem loading shared by solve/compare ---- *)

(* Every MatrixMarket file the CLI reads (--mtx, --rhs) goes through here:
   a file that cannot be read or parsed is a one-line report and exit 1,
   never an uncaught exception. *)
let read_checked read path =
  try read path with
  | Sparse.Matrix_market.Parse_error msg ->
    Printf.eprintf "pgsolve: %s: %s\n" path msg;
    exit 1
  | Sys_error msg ->
    Printf.eprintf "pgsolve: %s\n" msg;
    exit 1

(* Raw (name, A, b) triple, unvalidated: --robust/--diagnose must see a
   possibly-corrupted matrix BEFORE SDDM validation rejects it. [b], when
   given, is the first --rhs column (already loaded by the caller). *)
let load_mtx ?b path =
  let a = read_checked Sparse.Matrix_market.read path in
  let n, _ = Sparse.Csc.dims a in
  let b =
    match b with
    | Some b -> b
    | None ->
      let rng = Rng.create 1 in
      Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5)
  in
  (Filename.basename path, a, b)

let load_problem ?b netlist mtx case scale =
  match (netlist, mtx, case) with
  | Some path, None, None ->
    let parsed = Powergrid.Netlist.parse_file path in
    let { Powergrid.Netlist.problem; _ } =
      Powergrid.Netlist.to_problem ~name:(Filename.basename path) parsed
    in
    problem
  | None, Some path, None -> (
    let name, a, b = load_mtx ?b path in
    match Sddm.Problem.of_matrix ~name ~a ~b with
    | problem -> problem
    | exception Invalid_argument msg ->
      Printf.eprintf "pgsolve: %s\n" msg;
      exit 1)
  | None, None, Some id ->
    let c = Powergrid.Suite.find ~scale id in
    c.Powergrid.Suite.build ()
  | None, None, None ->
    (* default demo problem *)
    let c = Powergrid.Suite.find ~scale "pg01" in
    c.Powergrid.Suite.build ()
  | _ ->
    prerr_endline "specify at most one of NETLIST, --mtx, --case";
    exit 2

let netlist_pos =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"NETLIST" ~doc:"SPICE netlist to solve.")

let mtx_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mtx" ] ~docv:"FILE" ~doc:"MatrixMarket SDDM matrix to solve.")

let rhs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rhs" ] ~docv:"FILE"
        ~doc:
          "MatrixMarket array-format right-hand side(s) (used with --mtx; \
           default: deterministic random loads). A file with k > 1 columns \
           is solved as a batch: one factorization, k PCG solves \
           (plain solve path only).")

let case_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "case" ] ~docv:"ID"
        ~doc:"Benchmark suite case id (pg01..pg16, youtube, ecology, ...).")

let scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"S" ~doc:"Suite case size multiplier.")

(* ---- solve ---- *)

(* ---- telemetry emission shared by the solve paths ---- *)

let emit_telemetry ~profile ~metrics_json ~trace record =
  if profile then print_string (Obs.record_to_text record);
  (match metrics_json with
   | None -> ()
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         output_string oc
           (Obs.Json.to_string ~indent:true (Obs.record_to_json record));
         output_char oc '\n');
     Printf.printf "[metrics written: %s]\n" path);
  match trace with
  | None -> ()
  | Some path ->
    Obs.Trace.write path;
    Obs.set_tracing false;
    let dropped = Obs.Trace.dropped () in
    if dropped > 0 then
      Printf.printf "[trace written: %s (%d events dropped)]\n" path dropped
    else Printf.printf "[trace written: %s]\n" path

(* Run [f] as is, or under Solver.with_obs with the telemetry emitted when
   any of --profile / --metrics-json / --trace asked for it. *)
let observed ~profile ~metrics_json ~trace ~meta_of f =
  if profile || metrics_json <> None || trace <> None then begin
    let v, record = Powerrchol.Solver.with_obs ~meta_of f in
    emit_telemetry ~profile ~metrics_json ~trace record;
    v
  end
  else f ()

let solve_cmd =
  let budget =
    Arg.(
      value & opt float 0.05
      & info [ "budget" ] ~docv:"V" ~doc:"IR-drop violation budget (volts).")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable the observability layer for this solve and print the \
             telemetry report: hierarchical phase spans (reorder / factor / \
             pcg with bucket-sort, target-merge and triangular-solve \
             sub-spans) and counters (sampled clique edges, fill-in, \
             preconditioner nnz ratio, PCG iterations).")
  in
  let metrics_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable telemetry record of the solve to \
             $(docv) (implies instrumentation; schema \
             powerrchol-telemetry/v2).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON timeline of the solve to $(docv) \
             (implies instrumentation): timestamped span begin/end events and \
             per-iteration PCG residual counters, one track per domain. Open \
             in Perfetto (ui.perfetto.dev) or chrome://tracing; schema \
             powerrchol-trace/v1.")
  in
  let robust_flag =
    Arg.(
      value & flag
      & info [ "robust" ]
          ~doc:
            "Solve via the hardened path: pre-flight diagnostics, per-island \
             solving of disconnected grids, and a deterministic fallback \
             chain (powerrchol, reseed-and-retry, rchol, jacobi, direct) \
             verified against the true residual. Bad input yields a \
             structured report instead of garbage voltages.")
  in
  let diagnose_flag =
    Arg.(
      value & flag
      & info [ "diagnose" ]
          ~doc:
            "Run pre-flight diagnostics only (NaN/Inf entries, asymmetry, \
             lost diagonal dominance, zero rows, floating islands) and print \
             the report without solving. Exits 1 when fatal issues are \
             found.")
  in
  let run netlist mtx rhs case scale solver_tag rtol seed budget robust
      diagnose profile metrics_json trace domains =
    apply_domains domains;
    let observed ~meta_of f =
      observed ~profile ~metrics_json ~trace ~meta_of f
    in
    (* arm tracing before the instrumented run so the span begin/end
       events of the whole solve land in the ring buffers *)
    if trace <> None then Obs.set_tracing true;
    (* --rhs loads eagerly: a k-column file is a batch of k loads for the
       same matrix (the factor-once / solve-many workload) *)
    let rhs_cols =
      match rhs with
      | None -> None
      | Some path ->
        let cols = read_checked Sparse.Matrix_market.read_vectors path in
        if Array.length cols = 0 then begin
          prerr_endline "--rhs file has no columns";
          exit 2
        end;
        Some cols
    in
    let b = Option.map (fun cols -> cols.(0)) rhs_cols in
    let batch =
      match rhs_cols with
      | Some cols when Array.length cols > 1 -> Some cols
      | _ -> None
    in
    if batch <> None && mtx = None then begin
      prerr_endline "--rhs with multiple columns requires --mtx";
      exit 2
    end;
    if batch <> None && (robust || diagnose) then begin
      prerr_endline
        "--robust/--diagnose accept a single right-hand side; pass a \
         one-column --rhs file";
      exit 2
    end;
    if diagnose then begin
      let report =
        match mtx with
        | Some path ->
          let _, a, b = load_mtx ?b path in
          Robust.Diagnose.run ~a ~b
        | None ->
          Robust.Diagnose.of_problem (load_problem ?b netlist mtx case scale)
      in
      Format.printf "%a@." Robust.Diagnose.pp_report report;
      exit (if Robust.Diagnose.has_fatal report then 1 else 0)
    end;
    if robust then begin
      let r =
        match mtx with
        | Some path ->
          let name, a, b = load_mtx ?b path in
          let n, _ = Sparse.Csc.dims a in
          observed
            ~meta_of:
              (Powerrchol.Solver.robust_meta_of ~case:name ~n
                 ~nnz:(Sparse.Csc.nnz a))
            (fun () ->
              Powerrchol.Solver.solve_matrix_robust ~rtol ~seed ~name ~a ~b ())
        | None ->
          let problem = load_problem ?b netlist mtx case scale in
          Printf.printf "%s\n" (Sddm.Problem.describe problem);
          observed
            ~meta_of:
              (Powerrchol.Solver.robust_meta_of
                 ~case:problem.Sddm.Problem.name ~n:(Sddm.Problem.n problem)
                 ~nnz:(Sddm.Problem.nnz problem))
            (fun () -> Powerrchol.Solver.solve_robust ~rtol ~seed problem)
      in
      Format.printf "%a@." Powerrchol.Solver.pp_robust r;
      if not (Powerrchol.Solver.robust_ok r) then exit 1
    end
    else begin
      let problem = load_problem ?b netlist mtx case scale in
      Printf.printf "%s\n" (Sddm.Problem.describe problem);
      let solver = solver_of_tag ~seed solver_tag in
      match batch with
      | Some cols ->
        (* factor once, then solve every column against the same
           preparation *)
        let k = Array.length cols in
        let solve_batch () =
          let prepared = Powerrchol.Solver.prepare solver problem in
          (prepared, Powerrchol.Solver.solve_many ~rtol prepared cols)
        in
        let prepared, results =
          observed
            ~meta_of:(fun ((prepared : Powerrchol.Solver.prepared), _) ->
              [
                ("mode", Obs.Json.Str "batched");
                ("solver", Obs.Json.Str prepared.Powerrchol.Solver.solver_name);
                ("case", Obs.Json.Str problem.Sddm.Problem.name);
                ("n", Obs.Json.Int (Sddm.Problem.n problem));
                ("rhs_columns", Obs.Json.Int k);
              ])
            solve_batch
        in
        let t_prepare =
          prepared.Powerrchol.Solver.t_reorder
          +. prepared.Powerrchol.Solver.t_precond
        in
        Printf.printf
          "batched solve: %d right-hand sides, one factorization\n\
           prepare: %.3f s (factor nnz %d)\n"
          k t_prepare prepared.Powerrchol.Solver.factor_nnz;
        let t_solves = ref 0.0 in
        Array.iteri
          (fun i (r : Powerrchol.Solver.result) ->
            t_solves := !t_solves +. r.Powerrchol.Solver.t_iterate;
            Printf.printf
              "  rhs %2d: %3d iterations, residual %.3e, %.3f s, %s\n" i
              r.Powerrchol.Solver.iterations r.Powerrchol.Solver.residual
              r.Powerrchol.Solver.t_iterate
              (Krylov.Pcg.status_to_string r.Powerrchol.Solver.status))
          results;
        Printf.printf
          "amortized: %.3f s per solve (vs %.3f s paying the factorization \
           every time)\n"
          ((t_prepare +. !t_solves) /. float_of_int k)
          (t_prepare +. (!t_solves /. float_of_int k));
        if
          not
            (Array.for_all
               (fun (r : Powerrchol.Solver.result) ->
                 r.Powerrchol.Solver.converged)
               results)
        then exit 1
      | None ->
      let r =
        observed
          ~meta_of:(Powerrchol.Solver.result_meta problem)
          (fun () -> Powerrchol.Solver.run ~rtol solver problem)
      in
      report_result r;
      if r.Powerrchol.Solver.converged && netlist = None && mtx = None then begin
        (* suite power-grid cases use the drop formulation: report IR drop *)
        let report = Powergrid.Ir_drop.analyze ~budget r.Powerrchol.Solver.x in
        Format.printf "%a@." Powergrid.Ir_drop.pp report
      end;
      if not r.Powerrchol.Solver.converged then exit 1
    end
  in
  let doc = "Solve a power-grid system and report timing and IR drop." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(
      const run $ netlist_pos $ mtx_arg $ rhs_arg $ case_arg $ scale_arg
      $ solver_arg $ rtol_arg $ seed_arg $ budget $ robust_flag
      $ diagnose_flag $ profile_flag $ metrics_json_arg $ trace_arg
      $ domains_arg)

(* ---- compare ---- *)

let compare_cmd =
  let run netlist mtx case scale rtol seed =
    let problem = load_problem netlist mtx case scale in
    Printf.printf "%s\n" (Sddm.Problem.describe problem);
    Printf.printf "%-15s %9s %9s %9s %9s %5s %10s %6s\n" "solver" "Tr" "Tf"
      "Ti" "Ttot" "Ni" "factor-nnz" "conv";
    List.iter
      (fun (name, tag) ->
        let solver = solver_of_tag ~seed tag in
        let r = Powerrchol.Solver.run ~rtol solver problem in
        Printf.printf "%-15s %9.3f %9.3f %9.3f %9.3f %5d %10d %6b\n" name
          r.Powerrchol.Solver.t_reorder r.Powerrchol.Solver.t_precond
          r.Powerrchol.Solver.t_iterate r.Powerrchol.Solver.t_total
          r.Powerrchol.Solver.iterations r.Powerrchol.Solver.factor_nnz
          r.Powerrchol.Solver.converged)
      Proto.solver_names
  in
  let doc = "Run every solver on one problem and tabulate the results." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ netlist_pos $ mtx_arg $ case_arg $ scale_arg $ rtol_arg
      $ seed_arg)

(* ---- transient ---- *)

let transient_cmd =
  let nx =
    Arg.(value & opt int 80 & info [ "nx" ] ~docv:"N" ~doc:"Grid width.")
  in
  let ny =
    Arg.(value & opt int 80 & info [ "ny" ] ~docv:"N" ~doc:"Grid height.")
  in
  let step =
    Arg.(
      value & opt float 1e-11
      & info [ "step" ] ~docv:"SEC" ~doc:"Backward-Euler step size.")
  in
  let steps =
    Arg.(
      value & opt int 200
      & info [ "steps" ] ~docv:"N" ~doc:"Number of time steps.")
  in
  let period =
    Arg.(
      value & opt float 5e-10
      & info [ "period" ] ~docv:"SEC" ~doc:"Load pulse period.")
  in
  let duty =
    Arg.(
      value & opt float 0.5
      & info [ "duty" ] ~docv:"D" ~doc:"Load pulse duty cycle in [0,1].")
  in
  let run nx ny seed rtol step steps period duty =
    (* the library rejects a bad --step, --steps, --period or --duty with
       Invalid_argument: a one-line report and exit 1 *)
    let checked f =
      try f ()
      with Invalid_argument msg ->
        Printf.eprintf "pgsolve: %s\n" msg;
        exit 1
    in
    let waveform =
      checked (fun () -> Powerrchol.Transient.Waveform.pulse ~period ~duty)
    in
    let spec = Powergrid.Generate.default ~nx ~ny ~seed in
    let circuit = Powergrid.Generate.generate_circuit spec in
    Printf.printf "grid: %d nodes, %d decap sites; h = %.3g s, %d steps
"
      circuit.Powergrid.Generate.n_nodes
      (Array.length circuit.Powergrid.Generate.caps)
      step steps;
    let t =
      checked (fun () ->
          Powerrchol.Transient.prepare ~rtol ~seed ~circuit ~h:step ())
    in
    let res =
      checked (fun () -> Powerrchol.Transient.simulate t ~steps ~waveform)
    in
    Printf.printf
      "prepare %.3f s; march %.3f s; %d PCG iterations (%.1f per step)
"
      res.Powerrchol.Transient.t_prepare res.Powerrchol.Transient.t_march
      res.Powerrchol.Transient.total_iterations
      (float_of_int res.Powerrchol.Transient.total_iterations
      /. float_of_int steps);
    Printf.printf "peak drop %.4f V at t = %.3g s; DC bound %.4f V
"
      res.Powerrchol.Transient.peak_drop res.Powerrchol.Transient.peak_time
      (Sparse.Vec.norm_inf (Powerrchol.Transient.dc_drop t))
  in
  let doc = "Transient (backward-Euler) simulation of a generated grid." in
  Cmd.v (Cmd.info "transient" ~doc)
    Term.(
      const run $ nx $ ny $ seed_arg $ rtol_arg $ step $ steps $ period
      $ duty)

(* ---- edit-storm (ECO flow) ---- *)

let edit_storm_cmd =
  let nx =
    Arg.(value & opt int 120 & info [ "nx" ] ~docv:"N" ~doc:"Grid width.")
  in
  let ny =
    Arg.(value & opt int 120 & info [ "ny" ] ~docv:"N" ~doc:"Grid height.")
  in
  let count =
    Arg.(
      value & opt int 32
      & info [ "edits" ] ~docv:"N" ~doc:"Number of edit scenarios to apply.")
  in
  let run nx ny seed rtol count =
    let spec = Powergrid.Generate.default ~nx ~ny ~seed in
    let circuit = Powergrid.Generate.generate_circuit spec in
    let problem =
      Powergrid.Generate.circuit_to_problem ~name:"edit-storm" circuit
    in
    let scenarios = Powergrid.Eco.storm ~seed ~spec circuit ~count in
    Printf.printf "grid: %s; %d edit scenarios (max support %d nodes)\n"
      (Sddm.Problem.describe problem)
      (Array.length scenarios)
      (Powergrid.Eco.max_support scenarios);
    let t0 = Unix.gettimeofday () in
    let session = Powerrchol.Engine.Session.create ~seed problem in
    let r0 = Powerrchol.Engine.Session.solve ~rtol session in
    let t_baseline = Unix.gettimeofday () -. t0 in
    Printf.printf "initial prepare+solve %.3f s (%d iterations)\n" t_baseline
      r0.Powerrchol.Solver.iterations;
    let module S = Powerrchol.Engine.Session in
    let rung_counts = Hashtbl.create 4 in
    let t_updates = ref 0.0 and t_solves = ref 0.0 in
    let iterations = ref 0 and worst_residual = ref 0.0 in
    let unconverged = ref 0 in
    Array.iter
      (fun sc ->
        let report = Powerrchol.Engine.update session sc.Powergrid.Eco.edits in
        let rung = S.rung_name report.S.rung in
        Hashtbl.replace rung_counts rung
          (1 + Option.value ~default:0 (Hashtbl.find_opt rung_counts rung));
        t_updates := !t_updates +. report.S.t_update;
        let t1 = Unix.gettimeofday () in
        let r = S.solve ~rtol session in
        t_solves := !t_solves +. (Unix.gettimeofday () -. t1);
        iterations := !iterations + r.Powerrchol.Solver.iterations;
        worst_residual := Float.max !worst_residual r.Powerrchol.Solver.residual;
        if not r.Powerrchol.Solver.converged then begin
          incr unconverged;
          Printf.printf "  scenario %d (%s): DID NOT CONVERGE\n"
            sc.Powergrid.Eco.index sc.Powergrid.Eco.label
        end)
      scenarios;
    let n = Array.length scenarios in
    Printf.printf "rungs taken:";
    List.iter
      (fun rung ->
        match Hashtbl.find_opt rung_counts rung with
        | Some c -> Printf.printf " %s=%d" rung c
        | None -> ())
      [ "rhs-only"; "local"; "full" ];
    print_newline ();
    let amortized = (!t_updates +. !t_solves) /. float_of_int n in
    Printf.printf
      "storm: %d updates in %.3f s + %d PCG iterations in %.3f s\n" n
      !t_updates !iterations !t_solves;
    Printf.printf
      "amortized %.4f s per edit (%.2fx of from-scratch %.3f s); worst \
       residual %.2e\n"
      amortized
      (amortized /. t_baseline)
      t_baseline !worst_residual;
    if !unconverged > 0 then exit 1
  in
  let doc =
    "ECO edit storm against a versioned solver session. Exits 1 if any \
     re-solve did not converge."
  in
  Cmd.v (Cmd.info "edit-storm" ~doc)
    Term.(const run $ nx $ ny $ seed_arg $ rtol_arg $ count)

let main_cmd =
  let doc = "power-grid analysis via fast randomized Cholesky (PowerRChol)" in
  let info = Cmd.info "pgsolve" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ generate_cmd; solve_cmd; compare_cmd; transient_cmd; edit_storm_cmd ]

let () = exit (Cmd.eval main_cmd)
