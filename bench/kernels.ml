(* Hot-path kernel microbenchmarks for the parallel backend: scatter vs
   gather SpMV, the sequential triangular solves, and a representative
   PCG iteration (SpMV + preconditioner apply + dot + axpy) at one domain
   and at the widest sensible pool. Results go into bench.json under
   "kernels"; bench/compare.ml gates gather-vs-scatter always and the
   parallel speedup only when the run was wide enough
   (Runner.gate_speedup). *)

open Bechamel
open Toolkit

(* 160x160 = 25600 unknowns: above every parallel threshold (Vec 16384,
   SpMV 4096) so the parallel variants actually fan out. *)
let grid_side = 160

let fixture =
  lazy
    (let p =
       Powergrid.Generate.generate
         (Powergrid.Generate.default ~nx:grid_side ~ny:grid_side ~seed:7003)
     in
     let g = p.Sddm.Problem.graph in
     let perm = Ordering.Degree_sort.order g in
     let gp = Sddm.Graph.permute g perm in
     let d = p.Sddm.Problem.d in
     let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
     let l = Factor.Lt_rchol.factorize ~rng:(Rng.create 11) gp ~d:dp in
     (p, perm, l))

(* Domain count for the parallel variants: an explicit POWERRCHOL_DOMAINS
   wins; otherwise up to 4 hardware domains. 1 means the parallel
   variants are skipped (nothing to measure). *)
let par_domains =
  let r = Par.recommended_domains () in
  if r > 1 then r else min 4 (Par.hardware_domains ())

let run_par = par_domains > 1

let ns_per_run test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  match Test.elements test with
  | [ elt ] -> (
    let raw = Benchmark.run cfg [ instance ] elt in
    match Analyze.OLS.estimates (Analyze.one ols instance raw) with
    | Some [ e ] -> e
    | Some _ | None -> nan)
  | _ -> nan

let measure ~kernel ~variant ~domains ~n f =
  let name = Printf.sprintf "%s/%s" kernel variant in
  let t = ns_per_run (Test.make ~name (Staged.stage f)) /. 1e9 in
  Runner.record_kernel ~kernel ~variant ~domains ~n ~time_s:t;
  Printf.printf "%-28s %2d domain(s) %12.3f us/run\n%!" name domains
    (t *. 1e6);
  t

let run () =
  let p, perm, l = Lazy.force fixture in
  let a = p.Sddm.Problem.a in
  let n = Sddm.Problem.n p in
  let x = Sparse.Vec.init n (fun i -> float_of_int (i mod 23) /. 23.0) in
  let y = Sparse.Vec.create n in
  let z = Sparse.Vec.create n in
  let w = Sparse.Vec.create n in
  let scratch = Sparse.Vec.create n in
  let b0 = Sparse.Vec.init n (fun i -> float_of_int ((i * 7) mod 31) /. 31.0) in
  let t = Sparse.Vec.create n in
  Runner.header
    (Printf.sprintf
       "kernels: hot-path microbenchmarks (n = %d, backend %s, parallel \
        variants at %d domain(s))"
       n Par.backend
       (if run_par then par_domains else 1));
  (* restore on exit: the kernels experiment owns the default pool size
     for its duration only *)
  let restore () = Par.set_default_domains (Par.recommended_domains ()) in
  Fun.protect ~finally:restore (fun () ->
      Par.set_default_domains 1;
      let t_scatter =
        measure ~kernel:"spmv" ~variant:"scatter" ~domains:1 ~n (fun () ->
            Sparse.Csc.spmv_into a x y)
      in
      let t_gather =
        measure ~kernel:"spmv" ~variant:"gather" ~domains:1 ~n (fun () ->
            Sparse.Csc.spmv_sym_into a x y)
      in
      ignore
        (measure ~kernel:"trisolve" ~variant:"seq" ~domains:1 ~n (fun () ->
             Sparse.Vec.blit ~src:b0 ~dst:t;
             Factor.Lower.solve_in_place l t;
             Factor.Lower.solve_transpose_in_place l t));
      let pcg_body () =
        Sparse.Csc.spmv_sym_into a x y;
        Factor.Lower.apply_preconditioner l ~perm ~scratch y z;
        ignore (Sparse.Vec.dot y z);
        Sparse.Vec.axpy ~alpha:0.5 ~x:z ~y:w
      in
      let t_pcg_seq =
        measure ~kernel:"pcg_iterate" ~variant:"seq" ~domains:1 ~n pcg_body
      in
      if run_par then begin
        Par.set_default_domains par_domains;
        let t_gather_par =
          measure ~kernel:"spmv" ~variant:"gather-par" ~domains:par_domains
            ~n (fun () -> Sparse.Csc.spmv_sym_into a x y)
        in
        let t_pcg_par =
          measure ~kernel:"pcg_iterate" ~variant:"par" ~domains:par_domains
            ~n pcg_body
        in
        Printf.printf
          "speedup at %d domains: gather spmv %.2fx, pcg iterate %.2fx\n"
          par_domains (t_gather /. t_gather_par) (t_pcg_seq /. t_pcg_par);
        Runner.gate_speedup :=
          par_domains >= 4 && Par.hardware_domains () >= 4
      end;
      Printf.printf "gather vs scatter (sequential): %.2fx\n"
        (t_scatter /. t_gather))
