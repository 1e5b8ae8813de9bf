type prolongation =
  | Piecewise of int array  (* vertex -> aggregate id *)
  | Matrix of Sparse.Csc.t  (* smoothed-aggregation P *)

type level = {
  a : Sparse.Csc.t;
  diag : Sparse.Vec.t;
  prolong : prolongation;
  n_coarse : int;
}

(* one V-cycle's vectors at one level: the fine residual, and the coarse
   right-hand side and correction *)
type buffers = { r : Sparse.Vec.t; bc : Sparse.Vec.t; xc : Sparse.Vec.t }

type smoother =
  | Gauss_seidel
  | Jacobi of float

type t = {
  levels : level array;  (* all but the coarsest *)
  coarse : Sparse.Csc.t;
  coarse_factor : Factor.Lower.t;
  pre_sweeps : int;
  post_sweeps : int;
  smoother : smoother;
  buffers : buffers array Krylov.Precond.pool;  (* one entry per level *)
}

(* ---- strength-based greedy aggregation ---- *)

let aggregate ~theta a =
  let _, n = Sparse.Csc.dims a in
  let diag = Sparse.Csc.diag a in
  let strong i j v =
    i <> j && Float.abs v >= theta *. sqrt (Float.abs (diag.{i} *. diag.{j}))
  in
  let agg = Array.make n (-1) in
  let count = ref 0 in
  (* pass 1: roots grab all their unaggregated strong neighbors *)
  for i = 0 to n - 1 do
    if agg.(i) < 0 then begin
      let mine = ref [ i ] in
      Sparse.Csc.iter_col a i (fun j v ->
          if agg.(j) < 0 && strong i j v then mine := j :: !mine);
      (* only form an aggregate if we got at least one neighbor or the
         vertex is isolated in the strength graph *)
      match !mine with
      | [ _ ] ->
        (* defer singletons to pass 2 *)
        ()
      | members ->
        let id = !count in
        incr count;
        List.iter (fun j -> agg.(j) <- id) members
    end
  done;
  (* pass 2: attach leftovers to the strongest neighboring aggregate *)
  for i = 0 to n - 1 do
    if agg.(i) < 0 then begin
      let best = ref (-1) in
      let best_w = ref 0.0 in
      Sparse.Csc.iter_col a i (fun j v ->
          if j <> i && agg.(j) >= 0 && Float.abs v > !best_w then begin
            best := agg.(j);
            best_w := Float.abs v
          end);
      if !best >= 0 then agg.(i) <- !best
      else begin
        (* isolated vertex: its own aggregate *)
        agg.(i) <- !count;
        incr count
      end
    end
  done;
  (agg, !count)

(* Galerkin product for piecewise-constant prolongation:
   A_c(I,J) = sum over fine entries a_ij with agg(i)=I, agg(j)=J. *)
let galerkin a agg n_coarse =
  let t =
    Sparse.Triplet.create ~capacity:(max (Sparse.Csc.nnz a) 1)
      ~n_rows:n_coarse ~n_cols:n_coarse ()
  in
  Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
      Sparse.Triplet.add t agg.(i) agg.(j) v);
  Sparse.Csc.of_triplet t

(* Smoothed-aggregation prolongation: P = (I - omega D^-1 A) P_tent.
   Smoothing the tentative 0/1 interpolation turns the V-cycle into the
   classical SA-AMG method (Vanek/Mandel/Brezina), trading denser coarse
   operators for a better convergence factor. *)
let smoothed_prolongation ~omega a agg n_coarse =
  let n_rows, _ = Sparse.Csc.dims a in
  let t =
    Sparse.Triplet.create ~capacity:n_rows ~n_rows ~n_cols:n_coarse ()
  in
  for i = 0 to n_rows - 1 do
    Sparse.Triplet.add t i agg.(i) 1.0
  done;
  let p_tent = Sparse.Csc.of_triplet t in
  let ap = Sparse.Csc.mul a p_tent in
  let diag = Sparse.Csc.diag a in
  let nnz_ap = Sparse.Csc.nnz ap in
  let scaled =
    Sparse.Csc.drop
      (Sparse.Csc.of_raw ~n_rows ~n_cols:n_coarse
         ~col_ptr:ap.Sparse.Csc.col_ptr ~row_idx:ap.Sparse.Csc.row_idx
         ~values:
           (Sparse.Vec.init
              (Sparse.Vec.length ap.Sparse.Csc.values)
              (fun k ->
                let v = Sparse.Vec.get ap.Sparse.Csc.values k in
                if k < nnz_ap then
                  let i = Sparse.Idx.get ap.Sparse.Csc.row_idx k in
                  omega *. v /. diag.{i}
                else v)))
      (fun _ _ v -> v <> 0.0)
  in
  Sparse.Csc.add p_tent (Sparse.Csc.scale scaled (-1.0))

(* ---- smoothing: Gauss-Seidel using symmetry (row i = column i) ---- *)

let[@inline] at a k = Sparse.Idx.to_int (Sparse.Idx.unsafe_get_elt a k)

(* x.(i) <- (b.(i) - sum over k <> i of a(k,i) x.(k)) / diag.(i), reading
   row i as column i, terms in stored order. Index loops over the CSC
   arrays keep the accumulator unboxed, so a sweep allocates nothing. *)
let gs_row (a : Sparse.Csc.t) (diag : Sparse.Vec.t) (b : Sparse.Vec.t)
    (x : Sparse.Vec.t) i =
  let col_ptr = a.Sparse.Csc.col_ptr
  and row_idx = a.Sparse.Csc.row_idx
  and values = a.Sparse.Csc.values in
  let acc = ref b.{i} in
  for k = at col_ptr i to at col_ptr (i + 1) - 1 do
    let r = at row_idx k in
    if r <> i then acc := !acc -. (values.{k} *. x.{r})
  done;
  x.{i} <- !acc /. diag.{i}

let gs_forward a diag b x =
  for i = 0 to snd (Sparse.Csc.dims a) - 1 do
    gs_row a diag b x i
  done

let gs_backward a diag b x =
  for i = snd (Sparse.Csc.dims a) - 1 downto 0 do
    gs_row a diag b x i
  done

(* damped Jacobi sweep using the cycle's residual buffer as scratch *)
let jacobi_sweep omega a (diag : Sparse.Vec.t) r (b : Sparse.Vec.t)
    (x : Sparse.Vec.t) =
  let _, n = Sparse.Csc.dims a in
  Sparse.Csc.spmv_into a x r;
  for i = 0 to n - 1 do
    x.{i} <- x.{i} +. (omega *. (b.{i} -. r.{i}) /. diag.{i})
  done

(* ---- hierarchy construction ---- *)

let build ?(theta = 0.08) ?(max_levels = 20) ?(coarse_size = 200)
    ?(pre_sweeps = 1) ?(post_sweeps = 1) ?(smoother = Gauss_seidel)
    ?smooth_prolongation a0 =
  let rec grow levels a depth =
    let _, n = Sparse.Csc.dims a in
    if n <= coarse_size || depth >= max_levels - 1 then (levels, a)
    else begin
      let agg, n_coarse = aggregate ~theta a in
      if n_coarse >= n then
        (* aggregation stalled (e.g. diagonal matrix): stop coarsening *)
        (levels, a)
      else begin
        let prolong, a_c =
          match smooth_prolongation with
          | None -> (Piecewise agg, galerkin a agg n_coarse)
          | Some omega ->
            let p = smoothed_prolongation ~omega a agg n_coarse in
            let a_c = Sparse.Csc.mul (Sparse.Csc.transpose p) (Sparse.Csc.mul a p) in
            (Matrix p, a_c)
        in
        let level = { a; diag = Sparse.Csc.diag a; prolong; n_coarse } in
        grow (level :: levels) a_c (depth + 1)
      end
    end
  in
  let rev_levels, coarse = grow [] a0 0 in
  (* Coarse matrices of SDDM systems stay SDDM, but if the input is exactly
     singular on the coarse level (pure Laplacian), regularize slightly. *)
  let coarse_factor =
    match Factor.Chol.factorize coarse with
    | l -> l
    | exception Factor.Chol.Not_positive_definite _ ->
      let _, nc = Sparse.Csc.dims coarse in
      let eps = 1e-10 *. Sparse.Csc.one_norm coarse in
      let reg =
        Sparse.Csc.add coarse
          (Sparse.Csc.scale (Sparse.Csc.identity nc) eps)
      in
      Factor.Chol.factorize reg
  in
  let levels = Array.of_list (List.rev rev_levels) in
  let buffers () =
    Array.map
      (fun l ->
        {
          r = Sparse.Vec.create (snd (Sparse.Csc.dims l.a));
          bc = Sparse.Vec.create l.n_coarse;
          xc = Sparse.Vec.create l.n_coarse;
        })
      levels
  in
  {
    levels;
    coarse;
    coarse_factor;
    pre_sweeps;
    post_sweeps;
    smoother;
    buffers = Krylov.Precond.pool buffers;
  }

let n_levels t = Array.length t.levels + 1

let operator_complexity t =
  let fine_nnz =
    if Array.length t.levels = 0 then Sparse.Csc.nnz t.coarse
    else Sparse.Csc.nnz t.levels.(0).a
  in
  let total =
    Array.fold_left (fun acc l -> acc + Sparse.Csc.nnz l.a) 0 t.levels
    + Sparse.Csc.nnz t.coarse
  in
  float_of_int total /. float_of_int fine_nnz

let grid_sizes t =
  let sizes = Array.map (fun l -> snd (Sparse.Csc.dims l.a)) t.levels in
  Array.append sizes [| snd (Sparse.Csc.dims t.coarse) |]

let rec cycle t bufs depth (b : Sparse.Vec.t) (x : Sparse.Vec.t) =
  if depth = Array.length t.levels then begin
    Sparse.Vec.blit ~src:b ~dst:x;
    Factor.Lower.solve_in_place t.coarse_factor x;
    Factor.Lower.solve_transpose_in_place t.coarse_factor x
  end
  else begin
    let l = t.levels.(depth) and buf = bufs.(depth) in
    let n = Sparse.Vec.length x in
    Sparse.Vec.fill x 0.0;
    for _ = 1 to t.pre_sweeps do
      match t.smoother with
      | Gauss_seidel -> gs_forward l.a l.diag b x
      | Jacobi omega -> jacobi_sweep omega l.a l.diag buf.r b x
    done;
    (* restrict residual: bc = P^T (b - A x) *)
    Sparse.Csc.spmv_into l.a x buf.r;
    for i = 0 to n - 1 do
      buf.r.{i} <- b.{i} -. buf.r.{i}
    done;
    (match l.prolong with
     | Piecewise agg ->
       Sparse.Vec.fill buf.bc 0.0;
       for i = 0 to n - 1 do
         buf.bc.{agg.(i)} <- buf.bc.{agg.(i)} +. buf.r.{i}
       done
     | Matrix p ->
       let restricted = Sparse.Csc.spmv_t p buf.r in
       Sparse.Vec.blit ~src:restricted ~dst:buf.bc);
    cycle t bufs (depth + 1) buf.bc buf.xc;
    (* prolong and correct: x += P xc *)
    (match l.prolong with
     | Piecewise agg ->
       for i = 0 to n - 1 do
         x.{i} <- x.{i} +. buf.xc.{agg.(i)}
       done
     | Matrix p ->
       let lift = Sparse.Csc.spmv p buf.xc in
       for i = 0 to n - 1 do
         x.{i} <- x.{i} +. lift.{i}
       done);
    for _ = 1 to t.post_sweeps do
      match t.smoother with
      | Gauss_seidel -> gs_backward l.a l.diag b x
      | Jacobi omega -> jacobi_sweep omega l.a l.diag buf.r b x
    done
  end

let v_cycle t b x =
  Krylov.Precond.with_pooled t.buffers (fun bufs -> cycle t bufs 0 b x)

let solve ?(rtol = 1e-6) ?(max_iter = 100) t b =
  let a =
    if Array.length t.levels = 0 then t.coarse else t.levels.(0).a
  in
  let n = Sparse.Vec.length b in
  let x = Sparse.Vec.create n in
  let e = Sparse.Vec.create n in
  let r = Sparse.Vec.create n in
  let b_norm = Sparse.Vec.norm2 b in
  if b_norm = 0.0 then (x, 0, true)
  else begin
    let cycles = ref 0 in
    let rel = ref 1.0 in
    Sparse.Vec.blit ~src:b ~dst:r;
    while !rel > rtol && !cycles < max_iter do
      v_cycle t r e;
      for i = 0 to n - 1 do
        x.{i} <- x.{i} +. e.{i}
      done;
      Sparse.Csc.spmv_into a x r;
      for i = 0 to n - 1 do
        r.{i} <- b.{i} -. r.{i}
      done;
      rel := Sparse.Vec.norm2 r /. b_norm;
      incr cycles
    done;
    (x, !cycles, !rel <= rtol)
  end

let preconditioner t =
  let nnz =
    Array.fold_left (fun acc l -> acc + Sparse.Csc.nnz l.a) 0 t.levels
    + Sparse.Csc.nnz t.coarse
  in
  Krylov.Precond.of_apply ~name:"amg" ~nnz (fun r z -> v_cycle t r z)
