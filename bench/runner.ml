(* Shared machinery for the paper-table experiments: build suite cases
   once, run (case, solver) pairs once, cache the results, format rows. *)

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> (try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

let rtol =
  match Sys.getenv_opt "BENCH_RTOL" with
  | Some s -> (try float_of_string s with Failure _ -> 1e-6)
  | None -> 1e-6

let printf = Printf.printf

(* ---- solver registry ---- *)

type solver_id =
  | Powerrchol_s
  | Rchol_amd
  | Ltrchol_amd
  | Ltrchol_alg4
  | Ltrchol_natural
  | Fegrass_s
  | Fegrass_ichol_s
  | Amg_s

let solver_name = function
  | Powerrchol_s -> "PowerRChol"
  | Rchol_amd -> "RChol(AMD)"
  | Ltrchol_amd -> "LT-RChol(AMD)"
  | Ltrchol_alg4 -> "LT-RChol(Alg.4)"
  | Ltrchol_natural -> "LT-RChol(nat)"
  | Fegrass_s -> "feGRASS"
  | Fegrass_ichol_s -> "feGRASS-IChol"
  | Amg_s -> "AMG-PCG"

let instantiate = function
  | Powerrchol_s -> Powerrchol.Solver.powerrchol ()
  | Rchol_amd -> Powerrchol.Solver.rchol ()
  | Ltrchol_amd -> Powerrchol.Solver.lt_rchol ()
  | Ltrchol_alg4 ->
    Powerrchol.Solver.lt_rchol ~ordering:Powerrchol.Solver.Degree_sort ()
  | Ltrchol_natural ->
    Powerrchol.Solver.lt_rchol ~ordering:Powerrchol.Solver.Natural ()
  | Fegrass_s -> Powerrchol.Solver.fegrass ()
  | Fegrass_ichol_s -> Powerrchol.Solver.fegrass_ichol ()
  | Amg_s -> Powerrchol.Solver.amg_pcg ()

(* ---- caches ---- *)

let problem_cache : (string, Sddm.Problem.t) Hashtbl.t = Hashtbl.create 32

let problem_of (case : Powergrid.Suite.case) =
  match Hashtbl.find_opt problem_cache case.Powergrid.Suite.id with
  | Some p -> p
  | None ->
    let p = case.Powergrid.Suite.build () in
    Hashtbl.replace problem_cache case.Powergrid.Suite.id p;
    p

let result_cache : (string * solver_id, Powerrchol.Solver.result) Hashtbl.t =
  Hashtbl.create 64

(* Every (case, solver) measurement, in run order, for the bench.json
   summary that CI diffs across commits. *)
type bench_row = {
  row_case : string;
  row_solver : string;
  row_n : int;
  row_nnz : int;
  row_result : Powerrchol.Solver.result;
  row_bit_identical : bool option;
      (* whether a synthesized row's solutions equal its reference's *)
}

let bench_rows : bench_row list ref = ref []

let run case solver_id =
  let key = (case.Powergrid.Suite.id, solver_id) in
  match Hashtbl.find_opt result_cache key with
  | Some r -> r
  | None ->
    let p = problem_of case in
    let r = Powerrchol.Solver.run ~rtol (instantiate solver_id) p in
    Hashtbl.replace result_cache key r;
    bench_rows :=
      {
        row_case = case.Powergrid.Suite.id;
        row_solver = solver_name solver_id;
        row_n = Sddm.Problem.n p;
        row_nnz = Sddm.Problem.nnz p;
        row_result = r;
        row_bit_identical = None;
      }
      :: !bench_rows;
    r

(* Synthesized rows (aggregates like the batched-vs-unbatched pair) enter
   bench.json through here; [solver] must be unique per case so the
   regression gate keys stay stable. *)
let record_custom ?bit_identical ~case_id ~solver ~n ~nnz result =
  bench_rows :=
    {
      row_case = case_id;
      row_solver = solver;
      row_n = n;
      row_nnz = nnz;
      row_result = result;
      row_bit_identical = bit_identical;
    }
    :: !bench_rows

let drop_cached_problem case =
  Hashtbl.remove problem_cache case.Powergrid.Suite.id

(* ---- kernel microbenchmark rows (the "kernels" experiment) ---- *)

type kernel_row = {
  k_kernel : string;  (* "spmv" | "trisolve" | "pcg_iterate" *)
  k_variant : string;  (* "scatter" | "gather" | "sched" | "par" ... *)
  k_domains : int;  (* domain count the variant ran on *)
  k_n : int;
  k_time : float;  (* OLS seconds per run *)
}

let kernel_rows : kernel_row list ref = ref []

let record_kernel ~kernel ~variant ~domains ~n ~time_s =
  kernel_rows :=
    { k_kernel = kernel; k_variant = variant; k_domains = domains; k_n = n;
      k_time = time_s }
    :: !kernel_rows

(* ---- latency summaries (the batched experiment's traced re-run) ---- *)

type latency_row = {
  l_case : string;
  l_hist : string; (* histogram path inside the telemetry record *)
  l_count : int;
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_max : float;
}

let latency_rows : latency_row list ref = ref []

(* Pull every non-empty histogram out of a captured telemetry record
   (per-RHS solve_seconds, per-iteration pcg iter_seconds, ...) into the
   bench.json "latency" section. *)
let record_latencies ~case_id (record : Obs.record) =
  List.iter
    (fun (path, h) ->
      if Obs.Hist.count h > 0 then
        latency_rows :=
          {
            l_case = case_id;
            l_hist = path;
            l_count = Obs.Hist.count h;
            l_p50 = Obs.Hist.percentile h 50.0;
            l_p95 = Obs.Hist.percentile h 95.0;
            l_p99 = Obs.Hist.percentile h 99.0;
            l_max = Obs.Hist.max_value h;
          }
          :: !latency_rows)
    record.Obs.hists

(* The serve experiment's summary (req/s, latency percentiles, typed
   outcome counts) — lands in bench.json as the "serve" section, which
   compare.exe gates on throughput and on every outcome being typed. *)
let serve_section : Obs.Json.t option ref = ref None
let record_serve doc = serve_section := Some doc

(* The scale experiment's storage accounting (peak RSS, bytes/nnz,
   index width) — the bench.json "memory" section, gated by compare.exe
   against the RSS budget and the bytes-per-nonzero ceiling. *)
let memory_section : Obs.Json.t option ref = ref None
let record_memory doc = memory_section := Some doc

(* The ECO edit-storm experiment's summary (per-rung counts, amortized
   update+solve cost vs a from-scratch prepare) — the bench.json "edits"
   section, gated by compare.exe on the amortization ratio. *)
let edits_section : Obs.Json.t option ref = ref None
let record_edits doc = edits_section := Some doc

(* Peak resident set size of this process in kB, from the kernel's
   high-water mark (VmHWM). Returns 0 where /proc is unavailable; the
   scale gate then relies on the CI job's /usr/bin/time -v envelope. *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" (fun ic ->
            let rec scan () =
              match In_channel.input_line ic with
              | None -> 0
              | Some line ->
                (match String.index_opt line ':' with
                 | Some i when String.sub line 0 i = "VmHWM" ->
                   let rest = String.sub line (i + 1) (String.length line - i - 1) in
                   (try Scanf.sscanf rest " %d kB" (fun kb -> kb)
                    with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
                 | _ -> scan ())
            in
            scan ())
  with
  | kb -> kb
  | exception Sys_error _ -> 0

(* ---- case lists (computed once so every table sees the same sizes) ---- *)

let pg_cases = lazy (Powergrid.Suite.power_grid_cases ~scale ())
let other_cases = lazy (Powergrid.Suite.other_cases ~scale ())

(* ---- formatting ---- *)

let hr width = printf "%s\n" (String.make width '-')

let header title =
  printf "\n";
  hr 100;
  printf "%s\n" title;
  hr 100

let fmt_time t = Printf.sprintf "%8.3f" t
let fmt_opt_speedup = function
  | Some s -> Printf.sprintf "%5.2f" s
  | None -> "    -"

let conv_mark (r : Powerrchol.Solver.result) =
  if r.Powerrchol.Solver.converged then "" else "*"

(* geometric mean over the available pairs *)
let geomean values =
  let logs = List.filter_map (fun v -> if v > 0.0 then Some (log v) else None) values in
  match logs with
  | [] -> nan
  | _ -> exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))

let mean values =
  match values with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let summary_line ~label ~measured ~paper =
  printf "%-46s measured %5.2fx   (paper: %.2fx)\n" label measured paper

(* ---- CSV artifacts for plotting ---- *)

let artifact_dir =
  match Sys.getenv_opt "BENCH_ARTIFACTS" with
  | Some d -> d
  | None -> "bench_artifacts"

let with_csv name f =
  if not (Sys.file_exists artifact_dir) then Sys.mkdir artifact_dir 0o755;
  let path = Filename.concat artifact_dir name in
  Out_channel.with_open_text path f;
  printf "[csv written: %s]\n" path

(* fig3's column layout, shared by the two writers that touch the file
   (the fig3 sweep and the scale phase's appended row). *)
let fig3_csv_header =
  "case,nnz,feGRASS,feGRASS-IChol,AMG-PCG,RChol(AMD),PowerRChol,\
   PowerRChol-factor"

(* Append rows to an artifact CSV, creating it with [header] first when
   absent (the scale experiment extends fig3's sweep without rerunning
   the 28-case table). *)
let append_csv name ~header:header_line rows =
  if not (Sys.file_exists artifact_dir) then Sys.mkdir artifact_dir 0o755;
  let path = Filename.concat artifact_dir name in
  let fresh = not (Sys.file_exists path) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if fresh then output_string oc (header_line ^ "\n");
      List.iter (fun row -> output_string oc (row ^ "\n")) rows);
  printf "[csv appended: %s (%d row(s))]\n" path (List.length rows)

(* ---- bench.json: machine-readable summary for the CI regression gate ----

   Schema powerrchol-bench/v1 (see EXPERIMENTS.md): one row per
   (case, solver) pair actually measured this run, with the per-phase
   seconds, iteration count and true relative residual; bench/compare.ml
   diffs two of these files and fails on phase-time regressions. *)

let bench_row_json row =
  let r = row.row_result in
  Obs.Json.Obj
    ([
      ("case", Obs.Json.Str row.row_case);
      ("solver", Obs.Json.Str row.row_solver);
      ("n", Obs.Json.Int row.row_n);
      ("nnz", Obs.Json.Int row.row_nnz);
      ("t_reorder", Obs.Json.Float r.Powerrchol.Solver.t_reorder);
      ("t_factor", Obs.Json.Float r.Powerrchol.Solver.t_precond);
      ("t_iterate", Obs.Json.Float r.Powerrchol.Solver.t_iterate);
      ("t_total", Obs.Json.Float r.Powerrchol.Solver.t_total);
      ("iterations", Obs.Json.Int r.Powerrchol.Solver.iterations);
      ("relres", Obs.Json.Float r.Powerrchol.Solver.residual);
      ("converged", Obs.Json.Bool r.Powerrchol.Solver.converged);
      ("factor_nnz", Obs.Json.Int r.Powerrchol.Solver.factor_nnz);
    ]
    @
    match row.row_bit_identical with
    | Some b -> [ ("bit_identical", Obs.Json.Bool b) ]
    | None -> [])

let kernel_row_json row =
  Obs.Json.Obj
    [
      ("kernel", Obs.Json.Str row.k_kernel);
      ("variant", Obs.Json.Str row.k_variant);
      ("domains", Obs.Json.Int row.k_domains);
      ("n", Obs.Json.Int row.k_n);
      ("time_s", Obs.Json.Float row.k_time);
    ]

let latency_row_json row =
  Obs.Json.Obj
    [
      ("case", Obs.Json.Str row.l_case);
      ("hist", Obs.Json.Str row.l_hist);
      ("count", Obs.Json.Int row.l_count);
      ("p50", Obs.Json.Float row.l_p50);
      ("p95", Obs.Json.Float row.l_p95);
      ("p99", Obs.Json.Float row.l_p99);
      ("max", Obs.Json.Float row.l_max);
    ]

(* Chrome trace-event artifact next to bench.json, from whatever is in
   the Obs trace buffers when called (the batched experiment's traced
   re-run). compare.exe accepts it as a third argument and gates its
   structural validity. *)
let write_trace_json () =
  if not (Sys.file_exists artifact_dir) then Sys.mkdir artifact_dir 0o755;
  let path = Filename.concat artifact_dir "trace.json" in
  Obs.Trace.write path;
  printf "[trace written: %s (%d events, %d dropped)]\n" path
    (List.length (Obs.Trace.events ()))
    (Obs.Trace.dropped ())

let write_bench_json () =
  if not (Sys.file_exists artifact_dir) then Sys.mkdir artifact_dir 0o755;
  let path = Filename.concat artifact_dir "bench.json" in
  let doc =
    Obs.Json.Obj
      ([
        ("schema", Obs.Json.Str "powerrchol-bench/v1");
        ("scale", Obs.Json.Float scale);
        ("rtol", Obs.Json.Float rtol);
        ("par_backend", Obs.Json.Str Par.backend);
        ("hardware_domains", Obs.Json.Int (Par.hardware_domains ()));
        ("domains", Obs.Json.Int (Par.effective_domains ()));
        ( "rows",
          Obs.Json.List (List.rev_map bench_row_json !bench_rows) );
        ( "kernels",
          Obs.Json.List (List.rev_map kernel_row_json !kernel_rows) );
        ( "latency",
          Obs.Json.List (List.rev_map latency_row_json !latency_rows) );
      ]
      @ (match !serve_section with
        | Some doc -> [ ("serve", doc) ]
        | None -> [])
      @ (match !memory_section with
        | Some doc -> [ ("memory", doc) ]
        | None -> [])
      @
      match !edits_section with
      | Some doc -> [ ("edits", doc) ]
      | None -> [])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string ~indent:true doc);
      output_char oc '\n');
  printf "[bench json written: %s (%d rows, %d kernel rows, %d latency rows)]\n"
    path
    (List.length !bench_rows)
    (List.length !kernel_rows)
    (List.length !latency_rows)
