(* The "factor" experiment: the parallel numeric phase of LT-RChol
   (DESIGN.md §15) measured head-to-head against the 1-domain run on the
   same partitioned ordering of the same grid. Both legs get the
   ordering's leaf blocks; the 1-domain leg ignores them and runs the
   plain ascending elimination, the parallel leg runs them ahead on the
   pool.

   Two things land in the bench.json "factor" section and are judged by
   bench/compare.exe:

   - identity: the factor produced at [par_domains] must be bit-identical
     to the 1-domain factor (per-column keyed RNG streams + the sweep's
     replay in ascending source order make this exact, not
     approximate) — always fatal when violated;
   - speedup: when the run is wide enough to be meaningful (>= 4 domains
     on >= 4 hardware cores), the case is forced up to paper scale
     (>= 5e5 nodes) and the parallel factorization must beat the
     sequential one by BENCH_FACTOR_SPEEDUP (default 1.5x). Narrow runs
     record the numbers but are not judged.

   Environment:
     BENCH_FACTOR_NODES    override the grid size (default 5e5 * BENCH_SCALE,
                           floored at 2e4 so the smoke run stays meaningful)
     BENCH_FACTOR_REPS     timing repetitions, best-of (default 3) *)

open Runner

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let par_domains =
  let r = Par.recommended_domains () in
  if r > 1 then r else min 4 (Par.hardware_domains ())

let run_par = par_domains > 1
let gated = run_par && par_domains >= 4 && Par.hardware_domains () >= 4

let reps = max 1 (getenv_int "BENCH_FACTOR_REPS" 3)

let target_nodes =
  let scaled = int_of_float (500_000.0 *. scale) in
  let requested = getenv_int "BENCH_FACTOR_NODES" scaled in
  let base = max 20_000 requested in
  if gated then max base 500_000 else base

(* Order-insensitive only in the trivial sense: the factor storage layout
   is itself deterministic, so a plain FNV-style fold over the column
   pointers, row indices, and value bits is a faithful identity witness
   without materializing a digest buffer at paper scale. *)
let fingerprint l =
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  let n = Factor.Lower.dim l in
  for k = 0 to n do
    mix (Int64.of_int (Sparse.Idx.get l.Factor.Lower.col_ptr k))
  done;
  for q = 0 to Factor.Lower.nnz l - 1 do
    mix (Int64.of_int (Sparse.Idx.get l.Factor.Lower.rows q));
    mix (Int64.bits_of_float (Sparse.Vec.get l.Factor.Lower.vals q))
  done;
  !h

let run () =
  header
    (Printf.sprintf
       "Factor: parallel numeric phase, %d-node grid, 1 vs %d domain(s)"
       target_nodes
       (if run_par then par_domains else 1));
  let case = Powergrid.Suite.scale_case ~target_nodes () in
  let p = problem_of case in
  let g = p.Sddm.Problem.graph in
  let n = Sddm.Problem.n p and nnz = Sddm.Problem.nnz p in
  (* the production pipeline's reordering (Solver.powerrchol_prepare):
     recursive bisection + Alg. 4 degree sort per block, whose leaf blocks
     are what the parallel leg runs ahead *)
  let perm, blocks = Ordering.Partitioned.order_with_blocks g in
  let gp = Sddm.Graph.permute g perm in
  let d = p.Sddm.Problem.d in
  let dp = Array.init n (fun k -> d.(perm.(k))) in
  (* best-of-[reps] wall time at a fixed domain count; every reseed makes
     the factorization a replay of the same sampled structure *)
  let measure domains =
    Par.set_default_domains domains;
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let rng = Rng.create 42 in
      let t0 = Unix.gettimeofday () in
      let l = Factor.Lt_rchol.factorize ~blocks ~rng gp ~d:dp in
      let t = Unix.gettimeofday () -. t0 in
      if t < !best then best := t;
      result := Some l
    done;
    match !result with
    | Some l -> (!best, l)
    | None -> assert false
  in
  let restore () = Par.set_default_domains (Par.recommended_domains ()) in
  let t_seq, fp_seq, factor_nnz, par =
    Fun.protect ~finally:restore (fun () ->
        let t_seq, l_seq = measure 1 in
        let fp_seq = fingerprint l_seq in
        let factor_nnz = Factor.Lower.nnz l_seq in
        let par =
          if run_par then begin
            let t_par, l_par = measure par_domains in
            Some (t_par, fingerprint l_par = fp_seq)
          end
          else None
        in
        (t_seq, fp_seq, factor_nnz, par))
  in
  printf "case %s: n = %d, nnz = %d, factor nnz = %d\n"
    case.Powergrid.Suite.id n nnz factor_nnz;
  printf "sequential factorize: %8.3f s  (best of %d)\n" t_seq reps;
  let fields =
    [
      ("case", Obs.Json.Str case.Powergrid.Suite.id);
      ("nodes", Obs.Json.Int n);
      ("nnz", Obs.Json.Int nnz);
      ("factor_nnz", Obs.Json.Int factor_nnz);
      ("domains", Obs.Json.Int (if run_par then par_domains else 1));
      ("hardware_domains", Obs.Json.Int (Par.hardware_domains ()));
      ("reps", Obs.Json.Int reps);
      ("t_seq", Obs.Json.Float t_seq);
      ("fingerprint", Obs.Json.Str (Printf.sprintf "%016Lx" fp_seq));
      ("gated", Obs.Json.Bool gated);
    ]
  in
  let fields =
    match par with
    | None ->
      printf
        "parallel leg skipped (backend %s, %d domain(s)) — identity and \
         speedup not judged\n"
        Par.backend par_domains;
      fields
    | Some (t_par, identical) ->
      let speedup = t_seq /. t_par in
      printf "parallel factorize:   %8.3f s  at %d domains (%.2fx%s)\n" t_par
        par_domains speedup
        (if gated then ", gated" else ", not gated: run too narrow");
      printf "bitwise identity vs 1 domain: %s\n"
        (if identical then "OK" else "MISMATCH");
      fields
      @ [
          ("t_par", Obs.Json.Float t_par);
          ("speedup", Obs.Json.Float speedup);
          ("identical", Obs.Json.Bool identical);
        ]
  in
  record_factor (Obs.Json.Obj fields);
  (* paper-scale runs also land in fig3's CSV: factorization seconds per
     Mnnz, single-domain and (when measured) multi-domain legs in their
     own columns — smoke-sized runs stay out of the committed sweep *)
  if n >= 500_000 then begin
    let mnnz = float_of_int nnz /. 1e6 in
    let par_cell =
      match par with
      | Some (t_par, _) -> Printf.sprintf "%.6f" (t_par /. mnnz)
      | None -> ""
    in
    append_csv "fig3_seconds_per_mnnz.csv" ~header:fig3_csv_header
      [
        Printf.sprintf "factor-%d,%d,,,,,,%.6f,%s" n nnz (t_seq /. mnnz)
          par_cell;
      ]
  end;
  (* paper-scale when gated — don't leave the grid squeezing later phases *)
  drop_cached_problem case
