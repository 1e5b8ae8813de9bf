(* ECO edit-storm bench: the economic case for the versioned session
   layer. Opens one Engine session on a paper-scale grid, drives a storm
   of localized edit scenarios through Engine.update, and compares the
   amortized (update + re-solve) cost of each edit against the
   from-scratch (prepare + solve) baseline the session replaces.

   Lands in bench.json as the "edits" section; bench/compare.exe gates
   the amortization ratio (BENCH_EDIT_AMORT, default 0.5: an edit must
   cost at most half a from-scratch preparation) and convergence of
   every re-solve.

   Environment:
     BENCH_EDIT_NX / BENCH_EDIT_NY   grid dimensions (default 330x330:
                                     ~1.2e5 nodes with the top layer)
     BENCH_EDIT_COUNT                edit scenarios (default 64)
     BENCH_EDIT_SEED                 storm + factorization seed (42) *)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let nx = getenv_int "BENCH_EDIT_NX" 330
let ny = getenv_int "BENCH_EDIT_NY" 330
let count = getenv_int "BENCH_EDIT_COUNT" 64
let seed = getenv_int "BENCH_EDIT_SEED" 42

module Session = Powerrchol.Engine.Session

let run () =
  let spec = Powergrid.Generate.default ~nx ~ny ~seed in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let problem =
    Powergrid.Generate.circuit_to_problem ~name:"eco-storm" circuit
  in
  let scenarios = Powergrid.Eco.storm ~seed ~spec circuit ~count in
  let n = Sddm.Problem.n problem and nnz = Sddm.Problem.nnz problem in
  Runner.printf "\n== ECO edit storm: %d edits on %s ==\n" count
    (Sddm.Problem.describe problem);
  (* baseline: what each edit would cost without the session layer — a
     from-scratch prepare plus one solve *)
  let t0 = Unix.gettimeofday () in
  let session = Session.create ~seed problem in
  let r0 = Session.solve ~rtol:Runner.rtol session in
  let t_full = Unix.gettimeofday () -. t0 in
  Runner.printf "from-scratch prepare+solve: %.3f s (%d iterations)\n" t_full
    r0.Powerrchol.Solver.iterations;
  let rungs = Hashtbl.create 4 in
  let t_update = ref 0.0 and t_solve = ref 0.0 in
  let iterations = ref 0 in
  let worst_residual = ref 0.0 in
  let all_converged = ref r0.Powerrchol.Solver.converged in
  Array.iter
    (fun sc ->
      let t1 = Unix.gettimeofday () in
      let report = Powerrchol.Engine.update session sc.Powergrid.Eco.edits in
      let t2 = Unix.gettimeofday () in
      let r = Session.solve ~rtol:Runner.rtol session in
      let t3 = Unix.gettimeofday () in
      t_update := !t_update +. (t2 -. t1);
      t_solve := !t_solve +. (t3 -. t2);
      iterations := !iterations + r.Powerrchol.Solver.iterations;
      worst_residual :=
        Float.max !worst_residual r.Powerrchol.Solver.residual;
      if not r.Powerrchol.Solver.converged then begin
        all_converged := false;
        Runner.printf "  scenario %d (%s): DID NOT CONVERGE\n"
          sc.Powergrid.Eco.index sc.Powergrid.Eco.label
      end;
      let rung = Session.rung_name report.Session.rung in
      Hashtbl.replace rungs rung
        (1 + Option.value ~default:0 (Hashtbl.find_opt rungs rung)))
    scenarios;
  let rung_count r = Option.value ~default:0 (Hashtbl.find_opt rungs r) in
  let amortized = (!t_update +. !t_solve) /. float_of_int count in
  let ratio = amortized /. t_full in
  Runner.printf "rungs: rhs-only=%d local=%d full=%d\n"
    (rung_count "rhs-only") (rung_count "local") (rung_count "full");
  Runner.printf
    "storm: update %.3f s + solve %.3f s over %d edits (%d iterations)\n"
    !t_update !t_solve count !iterations;
  Runner.printf
    "amortized %.4f s per edit = %.2fx from-scratch; worst residual %.2e\n"
    amortized ratio !worst_residual;
  Runner.record_edits
    (Obs.Json.Obj
       [
         ("n", Obs.Json.Int n);
         ("nnz", Obs.Json.Int nnz);
         ("count", Obs.Json.Int count);
         ( "max_support",
           Obs.Json.Int (Powergrid.Eco.max_support scenarios) );
         ( "rungs",
           Obs.Json.Obj
             [
               ("rhs_only", Obs.Json.Int (rung_count "rhs-only"));
               ("local", Obs.Json.Int (rung_count "local"));
               ("full", Obs.Json.Int (rung_count "full"));
             ] );
         ("t_full_s", Obs.Json.Float t_full);
         ("t_update_s", Obs.Json.Float !t_update);
         ("t_solve_s", Obs.Json.Float !t_solve);
         ("amortized_s", Obs.Json.Float amortized);
         ("ratio", Obs.Json.Float ratio);
         ("iterations", Obs.Json.Int !iterations);
         ("worst_residual", Obs.Json.Float !worst_residual);
         ("all_converged", Obs.Json.Bool !all_converged);
       ])
