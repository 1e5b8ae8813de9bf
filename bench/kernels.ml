(* Hot-path kernel microbenchmarks: scatter vs gather SpMV, the
   sequential triangular solves, and a representative PCG iteration
   (SpMV + preconditioner apply + dot + axpy). Every kernel is one
   sequential loop on the calling domain, so each runs once. Results go
   into bench.json under "kernels"; bench/compare.ml gates gather against
   scatter. *)

open Bechamel
open Toolkit

(* 160x160 grid, 27,200 unknowns: the fixture the committed kernel rows
   were measured on. *)
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

let measure ~kernel ~variant ~n f =
  let name = Printf.sprintf "%s/%s" kernel variant in
  let t = ns_per_run (Test.make ~name (Staged.stage f)) /. 1e9 in
  Runner.record_kernel ~kernel ~variant ~domains:1 ~n ~time_s:t;
  Printf.printf "%-28s %12.3f us/run\n%!" name (t *. 1e6);
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
    (Printf.sprintf "kernels: hot-path microbenchmarks (n = %d, one domain)" n);
  let t_scatter =
    measure ~kernel:"spmv" ~variant:"scatter" ~n (fun () ->
        Sparse.Csc.spmv_into a x y)
  in
  let t_gather =
    measure ~kernel:"spmv" ~variant:"gather" ~n (fun () ->
        Sparse.Csc.spmv_sym_into a x y)
  in
  ignore
    (measure ~kernel:"trisolve" ~variant:"seq" ~n (fun () ->
         Sparse.Vec.blit ~src:b0 ~dst:t;
         Factor.Lower.solve_in_place l t;
         Factor.Lower.solve_transpose_in_place l t));
  ignore
    (measure ~kernel:"pcg_iterate" ~variant:"seq" ~n (fun () ->
         Sparse.Csc.spmv_sym_into a x y;
         Factor.Lower.apply_preconditioner l ~perm ~scratch y z;
         ignore (Sparse.Vec.dot y z);
         Sparse.Vec.axpy ~alpha:0.5 ~x:z ~y:w));
  Printf.printf "gather vs scatter (sequential): %.2fx\n"
    (t_scatter /. t_gather)
