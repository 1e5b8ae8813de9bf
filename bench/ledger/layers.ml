(* Per-layer measurement: the solve composed from each library's public
   functions with a span around every call, the work counts recorded at
   the same boundaries, and the per-layer metrics every workload reports.

   The composition is the one [Solver.run (Solver.powerrchol ())] performs
   internally, with the same default parameters, so its solution is
   bit-identical to the untraced solve on the same input; the workloads
   check that and count any difference as a failure. *)

module Solver = Powerrchol.Solver

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* Every workload's traced run reports exactly these, in this order. *)
let names =
  [
    ("ordering.order_ms", "ms");
    ("sddm.permute_ms", "ms");
    ("factor.factorize_ms", "ms");
    ("factor.ns_per_nnz", "ns/nnz");
    ("factor.fill_ratio", "ratio");
    ("krylov.pcg_ms", "ms");
    ("krylov.iterations", "count");
    ("sparse.spmv_ns_per_nnz", "ns/nnz");
    ("krylov.precond_ns_per_nnz", "ns/nnz");
    ("krylov.vector_ms", "ms");
    ("krylov.bytes_per_iter", "B/iter");
    ("krylov.gbs", "GB/s");
    ("ledger.trace_overhead_frac", "frac");
    ("ledger.unaccounted_frac", "frac");
  ]

(* What one workload run reports. [metrics] are the end-to-end metrics of
   an untraced run or the per-layer metrics ([names]) of a traced one;
   [extra] are the workload's own layer numbers, printed and written to
   the --out record but not part of the fixed set. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  extra : metric list;
}

type run = { seed : int; seconds : float; traced : bool; smoke : bool }

(* Where a run leaves its files (span dumps, sockets), relative to the
   directory it runs in. *)
let out_dir = "_ledger"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let ms s = s *. 1000.0

(* The outcome of an untraced run. Its metrics are identical in name and
   unit on every workload. With [~scaled:true] the times are scaled to
   the baseline machine's speed ([Speed]), and the wall-clock times go to
   [extra] beside them. The p90 and the throughput go to [extra] too:
   between runs on the README's baseline machine they varied by more than
   any bound could absorb. *)
let end_to_end ~scaled ~attempted ~failed ~op_s ~ops_per_s ~setup_s
    ~peak_rss_mb =
  let speed = if scaled then Speed.factor () else 1.0 in
  {
    attempted;
    failed;
    metrics =
      [
        metric "op_ms" "ms" (ms (Stats.median op_s) *. speed);
        metric "setup_s" "s" (Stats.median setup_s *. speed);
        metric "peak_rss_mb" "MB" peak_rss_mb;
      ];
    extra =
      metric "op_p90_ms" "ms" (ms (Stats.percentile op_s 90.0) *. speed)
      :: (if scaled then
            [
              metric "op_wall_ms" "ms" (ms (Stats.median op_s));
              metric "setup_wall_s" "s" (Stats.median setup_s);
              metric "probe_ms" "ms" (ms (Speed.median_s ()));
            ]
          else [])
      @ [
          metric "ops_per_s" "1/s" ops_per_s;
          metric "op_samples" "count" (float_of_int (Array.length op_s));
        ];
  }

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let time f =
  let t0 = Spans.now () in
  let v = f () in
  (v, Spans.now () -. t0)

(* Seed of the [i]-th generated input of a run. *)
let input_seed seed i = Rng.derive_key (Rng.keyed ~seed i)

(* Runs [op i] for i = 0, 1, ... until [seconds] have passed and at least
   [min_ops] operations ran. *)
let repeat ~seconds ~min_ops op =
  let stop = Spans.now () +. seconds in
  let rec go i acc =
    if i >= min_ops && Spans.now () >= stop then List.rev acc
    else go (i + 1) (op i :: acc)
  in
  go 0 []

(* ---- work counts, recorded beside the spans ---- *)

type factorization = { nnz_a : int; nnz_l : int }
type solve = { iterations : int; bytes_per_iter : float }

let factorizations : factorization list ref = ref []
let solves : solve list ref = ref []
let spmv_work = ref 0.0 (* nonzeros of A streamed, summed over calls *)
let precond_work = ref 0.0 (* nonzeros of L streamed, summed over calls *)

let reset () =
  Spans.reset ();
  factorizations := [];
  solves := [];
  spmv_work := 0.0;
  precond_work := 0.0

(* ---- the composed preparation ---- *)

(* Ordering.Partitioned.order -> Sddm.Graph.permute ->
   Factor.Lt_rchol.factorize -> Krylov.Precond.of_factor, as
   [Solver.powerrchol_prepare] runs them. *)
let permuted problem perm =
  let d = problem.Sddm.Problem.d in
  ( Sddm.Graph.permute problem.Sddm.Problem.graph perm,
    Array.init (Array.length perm) (fun k -> d.(perm.(k))) )

let order problem =
  Spans.record "ordering.order" (fun () ->
      Ordering.Partitioned.order ~heavy_factor:Solver.default_heavy_factor
        problem.Sddm.Problem.graph)

(* Work is counted only while spans are recorded, so the counts and the
   span times cover the same calls. *)
let count f = if !Spans.recording then f ()

let note_factor problem l =
  count (fun () ->
      factorizations :=
        { nnz_a = Sddm.Problem.nnz problem; nnz_l = Factor.Lower.nnz l }
        :: !factorizations)

let prepare ?(seed = Solver.default_seed) problem =
  let perm = order problem in
  let gp, dp = Spans.record "sddm.permute" (fun () -> permuted problem perm) in
  let l =
    Spans.record "factor.factorize" (fun () ->
        Factor.Lt_rchol.factorize ~rng:(Rng.create seed) gp ~d:dp)
  in
  note_factor problem l;
  Spans.record "krylov.of_factor" (fun () ->
      Krylov.Precond.of_factor ~name:"powerrchol" ~perm l)

(* The same steps through the updatable factorization an ECO session
   builds; used to measure those layers on the session's grid. *)
let prepare_updatable problem =
  let perm = order problem in
  let gp, dp = Spans.record "sddm.permute" (fun () -> permuted problem perm) in
  let u =
    Spans.record "factor.factorize" (fun () ->
        Factor.Lt_rchol.factorize_updatable
          ~rng:(Rng.create Solver.default_seed) gp ~d:dp)
  in
  note_factor problem (Factor.Rand_chol.factor u)

(* ---- the composed solve ---- *)

(* Computed bytes one PCG iteration moves, each array counted once per
   pass (cache reuse and misses ignored): one SpMV (A plus the x and y
   vectors), one preconditioner application (forward and backward
   triangular sweeps over L plus the permutation in and out), and the
   vector kernels (two dots, two axpys, one xpby, one norm: 14 vector
   passes). *)
let bytes_per_iter ~n ~a ~nnz_l =
  let idx = Sparse.Idx.bytes_per_index in
  let vec = 8 * n in
  let l_bytes = (nnz_l * (8 + idx)) + ((n + 1) * idx) in
  float_of_int
    (Sparse.Csc.bytes a + (2 * vec) + (2 * l_bytes) + (6 * vec) + (14 * vec))

(* Krylov.Pcg.solve_operator_into with a timed [apply_a] around
   Csc.spmv_sym_into and a timed preconditioner [apply], then the true
   residual the untraced solve path computes. Returns the PCG result and
   that residual. *)
let solve ~workspace ~problem ~b ~(precond : Krylov.Precond.t) =
  let a = problem.Sddm.Problem.a in
  let n = Sparse.Vec.length b in
  let nnz_a = float_of_int (Sparse.Csc.nnz a) in
  let nnz_l = float_of_int precond.Krylov.Precond.nnz in
  let apply_a v y =
    Spans.record "sparse.spmv" (fun () -> Sparse.Csc.spmv_sym_into a v y);
    count (fun () -> spmv_work := !spmv_work +. nnz_a)
  in
  let timed_precond =
    {
      precond with
      Krylov.Precond.apply =
        (fun ?scratch r z ->
          Spans.record "krylov.precond" (fun () ->
              precond.Krylov.Precond.apply ?scratch r z);
          count (fun () -> precond_work := !precond_work +. nnz_l));
    }
  in
  let x = Sparse.Vec.create n in
  let r =
    Spans.record "krylov.pcg" (fun () ->
        Krylov.Pcg.solve_operator_into ~warm_start:false ~workspace ~x ~apply_a
          ~b ~precond:timed_precond ())
  in
  let residual =
    Spans.record "sddm.residual" (fun () ->
        Sddm.Problem.residual_norm_against problem ~b r.Krylov.Pcg.x)
  in
  count (fun () ->
      solves :=
        {
          iterations = r.Krylov.Pcg.iterations;
          bytes_per_iter =
            bytes_per_iter ~n ~a ~nnz_l:precond.Krylov.Precond.nnz;
        }
        :: !solves);
  (r, residual)

(* ---- oracles ---- *)

let rtol = 1e-6

(* An answer passes when it converged and its true relative residual
   ||b - A x|| / ||b|| ([Sddm.Problem.residual_norm_against], through the
   plain CSC product rather than the gather kernel PCG iterates with) is
   at most 2·rtol. *)
let passes ~converged ~residual = converged && residual <= 2.0 *. rtol

let verified ~converged problem b x =
  passes ~converged
    ~residual:(Sddm.Problem.residual_norm_against problem ~b x)

(* Bit pattern of a solution, for the traced-equals-untraced check. *)
let digest x =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Sparse.Vec.length x - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.bits_of_float x.{i})) 0x100000001b3L
  done;
  !h

(* ---- the per-layer metrics ---- *)

(* [untraced_op_s] and [traced_op_s] are per-operation wall times of the
   same inputs without and with tracing. *)
let metrics ~untraced_op_s ~traced_op_s =
  let fs = !factorizations and ss = !solves in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let median f l = Stats.median (Array.of_list (List.map f l)) in
  let median_ms name = ms (Stats.median (Spans.durations name)) in
  let values =
    [
      median_ms "ordering.order";
      median_ms "sddm.permute";
      median_ms "factor.factorize";
      Spans.total "factor.factorize"
      *. 1e9
      /. sum (fun f -> float_of_int f.nnz_a) fs;
      median (fun f -> float_of_int f.nnz_l /. float_of_int f.nnz_a) fs;
      median_ms "krylov.pcg";
      median (fun s -> float_of_int s.iterations) ss;
      Spans.total "sparse.spmv" *. 1e9 /. !spmv_work;
      Spans.total "krylov.precond" *. 1e9 /. !precond_work;
      ms (Stats.median (Spans.self_of "krylov.pcg"));
      median (fun s -> s.bytes_per_iter) ss;
      sum (fun s -> float_of_int s.iterations *. s.bytes_per_iter) ss
      /. Spans.total "krylov.pcg"
      /. 1e9;
      (Stats.median traced_op_s /. Stats.median untraced_op_s) -. 1.0;
      Array.fold_left ( +. ) 0.0 (Spans.self_of "op") /. Spans.total "op";
    ]
  in
  List.map2 (fun (name, unit) value -> { name; value; unit }) names values
