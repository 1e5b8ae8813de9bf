(* Bench-regression gate.

   Usage: compare.exe BASELINE.json CURRENT.json [TRACE.json]
          compare.exe --trace TRACE.json
          compare.exe --prom FILE
          compare.exe --access-log FILE

   The --prom form validates a Prometheus text-format scrape (as served
   by pgserve's /metrics listener) with Obs.Prom.validate: TYPE before
   samples, legal names and label quoting, monotone non-decreasing
   histogram buckets, +Inf bucket equal to _count. The --access-log form
   validates a pgserve structured access log: every line parses as JSON,
   carries the required fields, and request ids are unique.

   BASELINE/CURRENT follow the powerrchol-bench/v1 schema written by
   Runner.write_bench_json. The gate fails (exit 1) when any (case,
   solver) row present in both files shows a per-phase time regression
   beyond the tolerance, or a case that converged in the baseline no
   longer converges. In CURRENT alone it also fails a batched row whose
   [bit_identical] field is false: the batch's solutions differ from the
   unbatched solves of the same right-hand sides.

   A TRACE.json argument (or the --trace form alone) additionally runs
   the trace-validity gate: the file must parse as Chrome trace-event
   JSON and pass Obs.Trace.validate — balanced B/E events with matching
   names and non-decreasing timestamps on every track. A malformed
   trace fails the gate even if all timing rows are fine.

   Tolerances are deliberately generous — CI machines are noisy and the
   smoke run uses tiny cases — and tunable via environment:

     BENCH_TOL_FACTOR   ratio above which a phase counts as regressed
                        (default 2.0, i.e. >2x slower)
     BENCH_TOL_ABS      absolute slack in seconds added on top, which
                        also mutes phases too short to measure reliably
                        (default 0.05)

   A phase regresses only if  current > factor * baseline + abs_slack,
   so microsecond-scale phases can never trip the gate on jitter alone.
   Rows present on one side only are reported but never fatal: the case
   list legitimately changes as the suite evolves. *)

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let tol_factor = getenv_float "BENCH_TOL_FACTOR" 2.0
let tol_abs = getenv_float "BENCH_TOL_ABS" 0.05

(* The batched experiment's amortization invariant, checked within the
   CURRENT file alone (no baseline needed): for every case carrying both a
   "PowerRChol(batched16)" and a "PowerRChol(unbatched16)" row, the
   batched t_total must be at most BENCH_TOL_BATCH of the unbatched one
   (default 0.75, plus the absolute slack so microsecond-scale smoke runs
   don't trip on jitter). *)
let tol_batch = getenv_float "BENCH_TOL_BATCH" 0.75
let batched_solver = "PowerRChol(batched16)"
let unbatched_solver = "PowerRChol(unbatched16)"

(* Kernel gate, checked within the CURRENT file's "kernels" section (when
   the kernels experiment ran): the gather-form symmetric SpMV must not be
   slower than the scatter form: gather <= BENCH_TOL_KERNEL * scatter +
   the (sub-millisecond) kernel slack — default 1.15x, generous enough for
   microbenchmark jitter while still catching a real inversion. Every
   kernel runs on one domain, so no kernel has a speedup to gate. *)
let tol_kernel = getenv_float "BENCH_TOL_KERNEL" 1.15
let tol_kernel_abs = getenv_float "BENCH_TOL_KERNEL_ABS" 2e-4

(* Serve gates, checked within the CURRENT file's "serve" section (when
   the serve load-generator experiment ran):

   - sustained throughput must not collapse: req_s >= BENCH_SERVE_MIN_REQS
     (default 1.0 — a floor against a wedged solve lane, not a
     performance target; CI boxes are slow);
   - client-observed p99 latency must stay bounded:
     p99_ms <= BENCH_SERVE_MAX_P99_MS (default 30000);
   - the typed-outcome accounting must balance exactly: solved +
     unconverged + rejected + timed_out + failed == requests and
     untyped == 0 — under load, every request still ends in exactly one
     typed response, never a transport error or silence. *)
let min_reqs = getenv_float "BENCH_SERVE_MIN_REQS" 1.0
let max_p99_ms = getenv_float "BENCH_SERVE_MAX_P99_MS" 30_000.0

(* Observability-overhead gate, checked within the serve section's
   "overhead" sub-document (when the serve bench ran its baseline vs
   instrumented phase): instrumentation — Obs counters/spans, rolling
   windows, the access log — may cost at most BENCH_OBS_OVERHEAD of
   baseline throughput (default 1.03, i.e. <= 3%). Slices too small to
   judge (< 20 requests on either side) are noted, not failed: a ratio
   computed from a handful of requests is jitter, not signal. *)
let max_obs_overhead = getenv_float "BENCH_OBS_OVERHEAD" 1.03

(* Memory gates, checked within the CURRENT file's "memory" section (when
   the scale experiment ran):

   - CSC storage must stay flat: bytes_per_nnz <= BENCH_MAX_BYTES_PER_NNZ
     (default 24.0 — an int64-index CSC entry costs 16 bytes of value +
     row index plus amortized column pointers; the int32 default sits
     near 12.7, so the ceiling catches any silent reintroduction of
     boxed storage at either index width);
   - the process peak RSS must stay inside the budget:
     peak_rss_kb <= BENCH_MAX_RSS_KB (default 4194304 — 4 GiB; the
     scale-smoke job sets the real envelope and double-checks it from
     outside via /usr/bin/time -v). A recorded 0 means /proc was
     unavailable, which is noted but not fatal. *)
let max_bytes_per_nnz = getenv_float "BENCH_MAX_BYTES_PER_NNZ" 24.0
let max_rss_kb = getenv_float "BENCH_MAX_RSS_KB" 4_194_304.0

(* Edit-storm gates, checked within the CURRENT file's "edits" section
   (when the ECO experiment ran):

   - the session layer must actually amortize: the mean (update + solve)
     cost of an edit must stay at or below BENCH_EDIT_AMORT times the
     from-scratch (prepare + solve) baseline — default 0.5, i.e. an
     incremental edit costs at most half a full re-preparation;
   - every post-edit re-solve must have converged: a fast but wrong
     factor is not an amortization. *)
let max_edit_amort = getenv_float "BENCH_EDIT_AMORT" 0.5

let phases = [ "t_reorder"; "t_factor"; "t_iterate"; "t_total" ]

let read_json path =
  let contents =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "compare: cannot read %s: %s\n" path msg;
      exit 2
  in
  match Obs.Json.parse contents with
  | Ok j -> j
  | Error msg ->
    Printf.eprintf "compare: %s: %s\n" path msg;
    exit 2

let rows_of doc path =
  match Obs.Json.member "rows" doc with
  | Some (Obs.Json.List rows) -> rows
  | _ ->
    Printf.eprintf "compare: %s: missing \"rows\" list\n" path;
    exit 2

let str_field key row =
  match Obs.Json.member key row with Some (Obs.Json.Str s) -> s | _ -> "?"

let key_of row = (str_field "case" row, str_field "solver" row)

let converged row =
  match Obs.Json.member "converged" row with
  | Some (Obs.Json.Bool b) -> b
  | _ -> true

let validate_trace path =
  let doc = read_json path in
  (match Obs.Json.member "schema" doc with
   | Some (Obs.Json.Str s) when s <> "powerrchol-trace/v1" ->
     Printf.printf "note: %s: unexpected trace schema %S\n" path s
   | _ -> ());
  match Obs.Trace.validate doc with
  | Ok summary -> Printf.printf "trace gate OK: %s: %s\n" path summary
  | Error msg ->
    Printf.printf "FAIL: trace %s: %s\n" path msg;
    exit 1

let read_text path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "compare: cannot read %s: %s\n" path msg;
    exit 2

let validate_prom path =
  match Obs.Prom.validate (read_text path) with
  | Ok summary -> Printf.printf "prom gate OK: %s: %s\n" path summary
  | Error msg ->
    Printf.printf "FAIL: prom %s: %s\n" path msg;
    exit 1

(* Every line of a pgserve access log must parse as a JSON object with
   the full field set, and the request ids must be unique — the same ids
   that name the request's Obs span tree. *)
let validate_access_log path =
  let required =
    [ "ts"; "id"; "op"; "outcome"; "bytes_in"; "bytes_out"; "latency_ms" ]
  in
  let seen = Hashtbl.create 64 in
  let lines =
    String.split_on_char '\n' (read_text path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then begin
    Printf.printf "FAIL: access log %s is empty\n" path;
    exit 1
  end;
  List.iteri
    (fun i line ->
      let fail msg =
        Printf.printf "FAIL: access log %s line %d: %s\n" path (i + 1) msg;
        exit 1
      in
      match Obs.Json.parse line with
      | Error msg -> fail ("not JSON: " ^ msg)
      | Ok (Obs.Json.Obj _ as j) -> (
        List.iter
          (fun k ->
            if Obs.Json.member k j = None then fail ("missing field " ^ k))
          required;
        match Obs.Json.member "id" j with
        | Some (Obs.Json.Str id) ->
          if Hashtbl.mem seen id then fail ("duplicate request id " ^ id)
          else Hashtbl.add seen id ()
        | _ -> fail "id is not a string")
      | Ok _ -> fail "not a JSON object")
    lines;
  Printf.printf "access-log gate OK: %s: %d line(s), all ids unique\n" path
    (List.length lines)

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; "--trace"; t |] ->
      validate_trace t;
      exit 0
    | [| _; "--prom"; f |] ->
      validate_prom f;
      exit 0
    | [| _; "--access-log"; f |] ->
      validate_access_log f;
      exit 0
    | [| _; b; c |] -> (b, c)
    | [| _; b; c; t |] ->
      validate_trace t;
      (b, c)
    | _ ->
      prerr_endline
        "usage: compare.exe BASELINE.json CURRENT.json [TRACE.json]\n\
        \       compare.exe --trace TRACE.json\n\
        \       compare.exe --prom FILE\n\
        \       compare.exe --access-log FILE";
      exit 2
  in
  let baseline = rows_of (read_json baseline_path) baseline_path in
  let current = rows_of (read_json current_path) current_path in
  let index rows =
    let tbl = Hashtbl.create 64 in
    List.iter (fun row -> Hashtbl.replace tbl (key_of row) row) rows;
    tbl
  in
  let base_tbl = index baseline in
  let failures = ref [] in
  let notes = ref [] in
  let compared = ref 0 in
  List.iter
    (fun row ->
      let case, solver = key_of row in
      match Hashtbl.find_opt base_tbl (case, solver) with
      | None ->
        notes := Printf.sprintf "new row (no baseline): %s/%s" case solver
                 :: !notes
      | Some base_row ->
        incr compared;
        List.iter
          (fun phase ->
            let get r =
              Option.bind (Obs.Json.member phase r) Obs.Json.to_float
            in
            match (get base_row, get row) with
            | Some old_t, Some new_t ->
              if new_t > (tol_factor *. old_t) +. tol_abs then
                failures :=
                  Printf.sprintf
                    "%s/%s %s regressed: %.4fs -> %.4fs (> %.1fx + %.2fs)"
                    case solver phase old_t new_t tol_factor tol_abs
                  :: !failures
            | _ ->
              notes := Printf.sprintf "%s/%s: missing %s" case solver phase
                       :: !notes)
          phases;
        if converged base_row && not (converged row) then
          failures :=
            Printf.sprintf "%s/%s no longer converges" case solver
            :: !failures)
    current;
  (* amortization invariant and bit-identity on the current run *)
  let cur_tbl = index current in
  let batched_checked = ref 0 in
  List.iter
    (fun row ->
      let case, solver = key_of row in
      if solver = batched_solver then begin
        (match Obs.Json.member "bit_identical" row with
         | Some (Obs.Json.Bool true) -> ()
         | Some (Obs.Json.Bool false) ->
           failures :=
             Printf.sprintf
               "%s batched solutions not bit-identical to unbatched solves"
               case
             :: !failures
         | _ ->
           notes := Printf.sprintf "%s: batched row without bit_identical" case
                    :: !notes);
        match Hashtbl.find_opt cur_tbl (case, unbatched_solver) with
        | None ->
          notes :=
            Printf.sprintf "%s: batched row without unbatched counterpart"
              case
            :: !notes
        | Some unbatched_row -> (
          let total r =
            Option.bind (Obs.Json.member "t_total" r) Obs.Json.to_float
          in
          match (total row, total unbatched_row) with
          | Some b, Some u ->
            incr batched_checked;
            if b > (tol_batch *. u) +. tol_abs then
              failures :=
                Printf.sprintf
                  "%s batched t_total %.4fs not amortized vs unbatched %.4fs \
                   (> %.2fx + %.2fs)"
                  case b u tol_batch tol_abs
                :: !failures
          | _ ->
            notes := Printf.sprintf "%s: batched rows missing t_total" case
                     :: !notes)
      end)
    current;
  if !batched_checked > 0 then
    Printf.printf "batched amortization checked on %d case(s)\n"
      !batched_checked;
  (* kernel gates on the current run *)
  let current_doc = read_json current_path in
  let kernel_rows =
    match Obs.Json.member "kernels" current_doc with
    | Some (Obs.Json.List rows) -> rows
    | _ -> []
  in
  let kernel_time kernel variant =
    List.find_map
      (fun row ->
        if str_field "kernel" row = kernel && str_field "variant" row = variant
        then Option.bind (Obs.Json.member "time_s" row) Obs.Json.to_float
        else None)
      kernel_rows
  in
  (match (kernel_time "spmv" "scatter", kernel_time "spmv" "gather") with
   | Some scatter, Some gather ->
     Printf.printf "kernel gate: sequential gather spmv %.2fx of scatter\n"
       (scatter /. gather);
     if gather > (tol_kernel *. scatter) +. tol_kernel_abs then
       failures :=
         Printf.sprintf
           "gather spmv slower than scatter: %.3es vs %.3es (> %.2fx + %.1es)"
           gather scatter tol_kernel tol_kernel_abs
         :: !failures
   | _ ->
     if kernel_rows <> [] then
       notes := "kernels section lacks spmv scatter/gather pair" :: !notes);
  (* serve gates on the current run *)
  (match Obs.Json.member "serve" current_doc with
   | None -> ()
   | Some serve ->
     let num key =
       match Obs.Json.member key serve with
       | Some v -> Obs.Json.to_float v
       | None -> None
     in
     let int_or_zero key =
       match num key with Some v -> int_of_float v | None -> 0
     in
     (match (num "requests", num "req_s", num "p99_ms") with
      | Some requests, Some req_s, Some p99 ->
        Printf.printf
          "serve gate: %.0f requests, %.1f req/s, p99 %.1f ms\n" requests
          req_s p99;
        if requests < 1.0 then
          failures := "serve: the load window completed zero requests"
                      :: !failures
        else begin
          if req_s < min_reqs then
            failures :=
              Printf.sprintf
                "serve throughput %.2f req/s below the %.2f floor" req_s
                min_reqs
              :: !failures;
          if p99 > max_p99_ms then
            failures :=
              Printf.sprintf "serve p99 %.1f ms above the %.1f ms cap" p99
                max_p99_ms
              :: !failures;
          let typed =
            int_or_zero "solved" + int_or_zero "unconverged"
            + int_or_zero "rejected" + int_or_zero "timed_out"
            + int_or_zero "failed"
          in
          let untyped = int_or_zero "untyped" in
          if untyped > 0 then
            failures :=
              Printf.sprintf
                "serve: %d request(s) ended untyped (transport error or \
                 silence)"
                untyped
              :: !failures;
          if typed + untyped <> int_of_float requests then
            failures :=
              Printf.sprintf
                "serve accounting broken: %d outcomes for %.0f requests"
                (typed + untyped) requests
              :: !failures
        end
      | _ ->
        failures := "serve section lacks requests/req_s/p99_ms" :: !failures);
     (* observability overhead: baseline vs instrumented throughput *)
     match Obs.Json.member "overhead" serve with
     | None -> notes := "serve section has no overhead sub-document" :: !notes
     | Some oh -> (
       let onum key =
         match Obs.Json.member key oh with
         | Some v -> Obs.Json.to_float v
         | None -> None
       in
       match (onum "base_requests", onum "instr_requests", onum "ratio") with
       | Some bn, Some inr, Some ratio ->
         Printf.printf
           "obs overhead gate: ratio %.3fx (baseline %.0f reqs, \
            instrumented %.0f reqs, cap %.2fx)\n"
           ratio bn inr max_obs_overhead;
         if bn < 20.0 || inr < 20.0 then
           notes :=
             Printf.sprintf
               "obs overhead not judged: too few requests (%.0f baseline, \
                %.0f instrumented)"
               bn inr
             :: !notes
         else if ratio > max_obs_overhead then
           failures :=
             Printf.sprintf
               "observability overhead %.3fx above the %.2fx cap \
                (baseline %.0f vs instrumented %.0f requests)"
               ratio max_obs_overhead bn inr
             :: !failures
       | _ ->
         failures :=
           "serve overhead sub-document lacks base_requests/\
            instr_requests/ratio"
           :: !failures));
  (* memory gates on the current run *)
  (match Obs.Json.member "memory" current_doc with
   | None -> ()
   | Some memory ->
     let num key =
       match Obs.Json.member key memory with
       | Some v -> Obs.Json.to_float v
       | None -> None
     in
     (match (num "bytes_per_nnz", num "peak_rss_kb") with
      | Some bpn, Some rss ->
        Printf.printf
          "memory gate: %.2f bytes/nnz, peak RSS %.0f kB (budget %.0f kB)\n"
          bpn rss max_rss_kb;
        if bpn > max_bytes_per_nnz then
          failures :=
            Printf.sprintf
              "CSC storage %.2f bytes/nnz above the %.2f ceiling" bpn
              max_bytes_per_nnz
            :: !failures;
        if rss = 0.0 then
          notes :=
            "memory section recorded peak_rss_kb = 0 (/proc unavailable)"
            :: !notes
        else if rss > max_rss_kb then
          failures :=
            Printf.sprintf
              "peak RSS %.0f kB above the %.0f kB budget" rss max_rss_kb
            :: !failures
      | _ ->
        failures :=
          "memory section lacks bytes_per_nnz/peak_rss_kb" :: !failures));
  (* edit-storm gates on the current run *)
  (match Obs.Json.member "edits" current_doc with
   | None -> ()
   | Some edits ->
     let num key =
       match Obs.Json.member key edits with
       | Some v -> Obs.Json.to_float v
       | None -> None
     in
     (match (num "ratio", num "count") with
      | Some ratio, Some count ->
        Printf.printf
          "edits gate: %.0f edits, amortized ratio %.3fx (cap %.2fx)\n"
          count ratio max_edit_amort;
        if count < 1.0 then
          failures := "edits: the storm applied zero edits" :: !failures
        else begin
          if ratio > max_edit_amort then
            failures :=
              Printf.sprintf
                "edit amortization %.3fx above the %.2fx cap (update+solve \
                 per edit vs from-scratch prepare+solve)"
                ratio max_edit_amort
              :: !failures;
          match Obs.Json.member "all_converged" edits with
          | Some (Obs.Json.Bool true) -> ()
          | Some (Obs.Json.Bool false) ->
            failures :=
              "edits: a post-edit re-solve failed to converge" :: !failures
          | _ -> failures := "edits section lacks all_converged" :: !failures
        end
      | _ -> failures := "edits section lacks ratio/count" :: !failures));
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev !notes);
  if !compared = 0 then
    (* an empty intersection means the gate compared nothing: make that
       loud, because a silently green no-op gate is worse than none *)
    Printf.printf
      "warning: no (case, solver) rows in common between %s and %s\n"
      baseline_path current_path;
  match List.rev !failures with
  | [] ->
    Printf.printf
      "bench gate OK: %d row(s) compared, tolerance %.1fx + %.2fs\n" !compared
      tol_factor tol_abs
  | fs ->
    List.iter (fun f -> Printf.printf "FAIL: %s\n" f) fs;
    Printf.printf "bench gate FAILED: %d regression(s) in %d row(s)\n"
      (List.length fs) !compared;
    exit 1
