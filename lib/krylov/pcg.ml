type breakdown_reason =
  | Indefinite of { iteration : int; curvature : float }
  | Nonfinite of { iteration : int }

type status =
  | Converged
  | Max_iter
  | Breakdown of breakdown_reason
  | Stagnated of { iteration : int; best_residual : float }
  | Timed_out of { iteration : int }

let status_to_string = function
  | Converged -> "converged"
  | Max_iter -> "max-iter"
  | Timed_out { iteration } ->
    Printf.sprintf "timed-out at iteration %d (deadline reached)" iteration
  | Breakdown (Indefinite { iteration; curvature }) ->
    Printf.sprintf "breakdown: indefinite operator (p'Ap = %g at iteration %d)"
      curvature iteration
  | Breakdown (Nonfinite { iteration }) ->
    Printf.sprintf "breakdown: non-finite residual at iteration %d" iteration
  | Stagnated { iteration; best_residual } ->
    Printf.sprintf "stagnated at iteration %d (best residual %.3e)" iteration
      best_residual

type result = {
  x : Sparse.Vec.t;
  iterations : int;
  status : status;
  converged : bool;
  relative_residual : float;
  history : float array;
  condition_estimate : float;
}

(* ---- reusable iteration workspace ---- *)

module Workspace = struct
  type t = {
    n : int;
    r : Sparse.Vec.t;
    z : Sparse.Vec.t;
    p : Sparse.Vec.t;
    q : Sparse.Vec.t;
    scratch : Sparse.Vec.t;
  }

  let create n =
    if n < 0 then invalid_arg "Pcg.Workspace.create: negative dimension";
    {
      n;
      r = Sparse.Vec.create n;
      z = Sparse.Vec.create n;
      p = Sparse.Vec.create n;
      q = Sparse.Vec.create n;
      scratch = Sparse.Vec.create n;
    }

  let dim ws = ws.n
end

(* CG implicitly runs Lanczos: with step sizes alpha_k and direction
   updates beta_k, the tridiagonal T has
   diag_k   = 1/alpha_k + beta_{k-1}/alpha_{k-1}   (beta_0/alpha_0 := 0)
   offdiag_k = sqrt(beta_k)/alpha_k.
   Its extreme eigenvalues estimate the spectrum of M^-1 A; we extract
   them with a few rounds of bisection on the Sturm sequence. *)
let condition_from_coefficients alphas betas =
  let k = List.length alphas in
  if k < 2 then 1.0
  else begin
    let alpha = Array.of_list (List.rev alphas) in
    let beta = Array.of_list (List.rev betas) in
    let diag =
      Array.init k (fun i ->
          (1.0 /. alpha.(i))
          +. (if i = 0 then 0.0 else beta.(i - 1) /. alpha.(i - 1)))
    in
    let off =
      Array.init (k - 1) (fun i -> sqrt (Float.max beta.(i) 0.0) /. alpha.(i))
    in
    (* Sturm count: number of eigenvalues of T below x *)
    let count_below x =
      let count = ref 0 in
      let d = ref 1.0 in
      for i = 0 to k - 1 do
        let off2 = if i = 0 then 0.0 else off.(i - 1) *. off.(i - 1) in
        let q = diag.(i) -. x -. (off2 /. !d) in
        (* guard against exact zero pivots *)
        let q = if Float.abs q < 1e-300 then -1e-300 else q in
        if q < 0.0 then incr count;
        d := q
      done;
      !count
    in
    (* Gershgorin bracket *)
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to k - 1 do
      let r =
        (if i > 0 then Float.abs off.(i - 1) else 0.0)
        +. if i < k - 1 then Float.abs off.(i) else 0.0
      in
      lo := Float.min !lo (diag.(i) -. r);
      hi := Float.max !hi (diag.(i) +. r)
    done;
    let bisect target =
      let a = ref !lo and b = ref !hi in
      for _ = 1 to 60 do
        let mid = ( !a +. !b ) /. 2.0 in
        if count_below mid >= target then b := mid else a := mid
      done;
      ( !a +. !b ) /. 2.0
    in
    let lambda_min = bisect 1 in
    let lambda_max = bisect k in
    if lambda_min > 0.0 then lambda_max /. lambda_min else infinity
  end

(* The single PCG core. [x] is the caller's buffer: on entry it holds the
   initial guess when [warm_start] (otherwise it is zeroed here), on exit
   the solution — result.x is physically [x]. All n-vectors come from
   [ws]; with [track] off (no residual history, no Lanczos coefficients
   for the condition estimate) the loop performs no allocation
   proportional to n or to the iteration count. *)
let solve_ws ?(rtol = 1e-6) ?(max_iter = 500) ?(stall_window = 200) ?deadline
    ~track ~warm_start ~(ws : Workspace.t) ~x ~apply_a ~b
    ~(precond : Precond.t) () =
  let n = ws.Workspace.n in
  if Sparse.Vec.length b <> n then
    invalid_arg
      (Printf.sprintf "Pcg.solve: rhs length %d, workspace dimension %d"
         (Sparse.Vec.length b) n);
  if Sparse.Vec.length x <> n then
    invalid_arg
      (Printf.sprintf "Pcg.solve: solution length %d, workspace dimension %d"
         (Sparse.Vec.length x) n);
  (* Telemetry: read the flag once; the hot loop then pays one branch per
     operator application and nothing else. The preconditioner span covers
     the triangular solves (or whatever [precond.apply] does). *)
  let obs = Obs.enabled () in
  let trc = obs && Obs.tracing () in
  (* histogram handle resolved once (under the caller's span prefix);
     the loop then records one sample per iteration with Hist.add *)
  let iter_hist = Obs.histogram "iter_seconds" in
  let t_pre = ref 0.0 and n_pre = ref 0 in
  let t_op = ref 0.0 and n_op = ref 0 in
  let scratch = ws.Workspace.scratch in
  let apply_precond r z =
    if obs then begin
      let t0 = Obs.now () in
      precond.apply ~scratch r z;
      t_pre := !t_pre +. (Obs.now () -. t0);
      incr n_pre
    end
    else precond.apply ~scratch r z
  in
  let apply_op v w =
    if obs then begin
      let t0 = Obs.now () in
      apply_a v w;
      t_op := !t_op +. (Obs.now () -. t0);
      incr n_op
    end
    else apply_a v w
  in
  let flush_obs iterations rel0 rel =
    if obs then begin
      Obs.record_span "precond" ~seconds:!t_pre ~calls:!n_pre;
      Obs.record_span "spmv" ~seconds:!t_op ~calls:!n_op;
      Obs.count "iterations" iterations;
      Obs.gauge "relres" rel;
      (* mean per-iteration residual contraction factor: < 1 means the
         residual shrank geometrically at that average rate *)
      if iterations > 0 && rel0 > 0.0 && Float.is_finite rel && rel > 0.0 then
        Obs.gauge "contraction"
          ((rel /. rel0) ** (1.0 /. float_of_int iterations))
    end
  in
  if not warm_start then Sparse.Vec.fill x 0.0;
  let b_norm = Sparse.Vec.norm2 b in
  if b_norm = 0.0 then begin
    flush_obs 0 0.0 0.0;
    Sparse.Vec.fill x 0.0;
    {
      x;
      iterations = 0;
      status = Converged;
      converged = true;
      relative_residual = 0.0;
      history = [||];
      condition_estimate = 1.0;
    }
  end
  else begin
    let r = ws.Workspace.r in
    (* r = b - A x0; skip the operator application for a known-zero guess *)
    if not warm_start then Sparse.Vec.blit ~src:b ~dst:r
    else begin
      apply_op x r;
      for i = 0 to n - 1 do
        r.{i} <- b.{i} -. r.{i}
      done
    end;
    let z = ws.Workspace.z in
    let p = ws.Workspace.p in
    let q = ws.Workspace.q in
    let history = ref [] in
    let alphas = ref [] in
    let betas = ref [] in
    apply_precond r z;
    Sparse.Vec.blit ~src:z ~dst:p;
    let rho = ref (Sparse.Vec.dot r z) in
    let iter = ref 0 in
    let rel = ref (Sparse.Vec.norm2 r /. b_norm) in
    let status = ref None in
    let best = ref !rel in
    let since_best = ref 0 in
    let rel0 = !rel in
    if trc then Obs.trace_counter "residual" !rel;
    (* Cooperative cancellation: one clock read per iteration, only when a
       deadline was requested. Checked before the operator application so
       an expired budget never pays another SpMV + triangular solve. *)
    let past_deadline =
      match deadline with
      | None -> fun () -> false
      | Some d -> fun () -> Obs.now () > d
    in
    if !rel <= rtol then status := Some Converged
    else if not (Float.is_finite !rel) then
      (* NaN/Inf in b, x0, or A: no amount of iterating recovers *)
      status := Some (Breakdown (Nonfinite { iteration = 0 }))
    else if past_deadline () then
      status := Some (Timed_out { iteration = 0 });
    while !status = None && !iter < max_iter do
      let it0 = if obs then Obs.now () else 0.0 in
      if past_deadline () then
        status := Some (Timed_out { iteration = !iter })
      else begin
      apply_op p q;
      let pq = Sparse.Vec.dot p q in
      (if not (Float.is_finite pq) then
         status := Some (Breakdown (Nonfinite { iteration = !iter }))
       else if pq <= 0.0 then
         (* loss of positive definiteness: the operator is not SPD (or the
            preconditioner destroyed it); report the true iteration count
            with a typed reason instead of masquerading as max_iter *)
         status := Some (Breakdown (Indefinite { iteration = !iter; curvature = pq }))
       else begin
         let alpha = !rho /. pq in
         if track then alphas := alpha :: !alphas;
         Sparse.Vec.axpy ~alpha ~x:p ~y:x;
         Sparse.Vec.axpy ~alpha:(-.alpha) ~x:q ~y:r;
         incr iter;
         rel := Sparse.Vec.norm2 r /. b_norm;
         if track then history := !rel :: !history;
         if not (Float.is_finite !rel) then
           status := Some (Breakdown (Nonfinite { iteration = !iter }))
         else if !rel <= rtol then status := Some Converged
         else begin
           if !rel < !best *. (1.0 -. 1e-6) then begin
             best := !rel;
             since_best := 0
           end
           else begin
             incr since_best;
             if !since_best >= stall_window then
               status :=
                 Some (Stagnated { iteration = !iter; best_residual = !best })
           end;
           if !status = None then begin
             apply_precond r z;
             let rho' = Sparse.Vec.dot r z in
             if not (Float.is_finite rho') then
               status := Some (Breakdown (Nonfinite { iteration = !iter }))
             else begin
               let beta = rho' /. !rho in
               if track then betas := beta :: !betas;
               rho := rho';
               Sparse.Vec.xpby ~x:z ~beta ~y:p
             end
           end
         end
       end);
      if obs then begin
        (match iter_hist with
         | Some h -> Obs.Hist.add h (Obs.now () -. it0)
         | None -> ());
        if trc then Obs.trace_counter "residual" !rel
      end
      end
    done;
    let status = match !status with Some s -> s | None -> Max_iter in
    flush_obs !iter rel0 !rel;
    (* betas lags alphas by one when the loop exits after an alpha *)
    let n_beta = List.length !betas and n_alpha = List.length !alphas in
    let alphas_trimmed =
      if n_alpha > n_beta + 1 then List.tl !alphas else !alphas
    in
    {
      x;
      iterations = !iter;
      status;
      converged = (status = Converged);
      relative_residual = !rel;
      history = Array.of_list (List.rev !history);
      condition_estimate =
        (if track then condition_from_coefficients alphas_trimmed !betas
         else 1.0);
    }
  end

let solve ?rtol ?max_iter ?stall_window ?deadline ?x0 ~a ~b ~precond () =
  let n = Sparse.Vec.length b in
  let x, warm_start =
    match x0 with
    | Some v ->
      if Sparse.Vec.length v <> n then
        invalid_arg
          (Printf.sprintf "Pcg.solve: x0 length %d, dimension %d"
             (Sparse.Vec.length v) n);
      (Sparse.Vec.copy v, true)
    | None -> (Sparse.Vec.create n, false)
  in
  (* Gather form: every caller hands a symmetric (SDDM/SPD) matrix, and
     the gather kernel writes each output once, with no zero-fill pass. *)
  solve_ws ?rtol ?max_iter ?stall_window ?deadline ~track:true ~warm_start
    ~ws:(Workspace.create n) ~x
    ~apply_a:(Sparse.Csc.spmv_sym_into a) ~b ~precond ()

let solve_operator_into ?rtol ?max_iter ?stall_window ?deadline
    ?(warm_start = true) ~workspace ~x ~apply_a ~b ~precond () =
  solve_ws ?rtol ?max_iter ?stall_window ?deadline ~track:false ~warm_start
    ~ws:workspace ~x ~apply_a ~b ~precond ()
