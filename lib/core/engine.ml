(* Versioned sessions for incremental re-solves (ECO flow): an editable
   system with its ordering, an updatable factorization and a version,
   revalidated after each edit batch by the cheapest correct rung.

   Nothing here is shared between callers. A session, like a
   Solver.prepared handle, belongs to whoever created it and goes away
   when they drop it. *)

(* ------------------------------------------------------------------ *)
(* Dense k x k LU with partial pivoting — the Woodbury core of the
   low-rank update rung (k <= low_rank_max, so no blocking needed). *)

let lu_factorize a k =
  let piv = Array.init k (fun i -> i) in
  for col = 0 to k - 1 do
    let best = ref col in
    for r = col + 1 to k - 1 do
      if abs_float a.(r).(col) > abs_float a.(!best).(col) then best := r
    done;
    if !best <> col then begin
      let t = a.(col) in
      a.(col) <- a.(!best);
      a.(!best) <- t;
      let t = piv.(col) in
      piv.(col) <- piv.(!best);
      piv.(!best) <- t
    end;
    let p = a.(col).(col) in
    if not (Float.is_finite p) || abs_float p < 1e-300 then
      failwith "Engine: singular Woodbury core";
    for r = col + 1 to k - 1 do
      let f = a.(r).(col) /. p in
      a.(r).(col) <- f;
      for c = col + 1 to k - 1 do
        a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
      done
    done
  done;
  piv

let lu_solve a piv k b =
  let y = Array.init k (fun i -> b.(piv.(i))) in
  for i = 0 to k - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (a.(i).(j) *. y.(j))
    done
  done;
  for i = k - 1 downto 0 do
    for j = i + 1 to k - 1 do
      y.(i) <- y.(i) -. (a.(i).(j) *. y.(j))
    done;
    y.(i) <- y.(i) /. a.(i).(i)
  done;
  y

(* Woodbury-corrected preconditioner: with [M = (L L^T)^-1] the old
   factor's application and [Delta = U C U^T] the pending matrix change
   restricted to a small support, apply

     N r = M r - (M U) (I + C W)^-1 C U^T (M r),   W = U^T M U

   which is exactly [(M^-1 + Delta)^-1] when the core is nonsingular —
   the old preconditioner corrected for the edit without touching the
   factor. [support]/[delta] are in the factor's (permuted) index space,
   which [M] maps from/to unpermuted coordinates internally, so the
   support indices here are ORIGINAL node ids. *)
let woodbury_precond ~(base : Krylov.Precond.t) ~n ~support ~delta =
  let k = Array.length support in
  let pos = Hashtbl.create (2 * k) in
  Array.iteri (fun q s -> Hashtbl.replace pos s q) support;
  let c = Array.make_matrix k k 0.0 in
  Hashtbl.iter
    (fun (i, j) dv ->
      let qi = Hashtbl.find pos i and qj = Hashtbl.find pos j in
      c.(qi).(qj) <- c.(qi).(qj) +. dv;
      if qi <> qj then c.(qj).(qi) <- c.(qj).(qi) +. dv)
    delta;
  let scratch =
    if base.Krylov.Precond.scratch_len > 0 then
      Some (Sparse.Vec.create base.Krylov.Precond.scratch_len)
    else None
  in
  let apply_base r z =
    match scratch with
    | Some scratch -> base.Krylov.Precond.apply ~scratch r z
    | None -> base.Krylov.Precond.apply r z
  in
  (* columns of M U: one base application per support node *)
  let mu =
    Array.map
      (fun s ->
        let e = Sparse.Vec.create n in
        Sparse.Vec.set e s 1.0;
        let z = Sparse.Vec.create n in
        apply_base e z;
        z)
      support
  in
  (* core = I + C W, W(i,j) = (M U)(support_i, j) *)
  let core = Array.make_matrix k k 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (c.(i).(l) *. Sparse.Vec.get mu.(j) support.(l))
      done;
      core.(i).(j) <- (if i = j then 1.0 else 0.0) +. !acc
    done
  done;
  let piv = lu_factorize core k in
  let rhs = Array.make k 0.0 in
  let apply r z =
    apply_base r z;
    for q = 0 to k - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (c.(q).(l) *. Sparse.Vec.get z support.(l))
      done;
      rhs.(q) <- !acc
    done;
    let s = lu_solve core piv k rhs in
    for q = 0 to k - 1 do
      let col = mu.(q) and sq = s.(q) in
      if sq <> 0.0 then
        for i = 0 to n - 1 do
          Sparse.Vec.set z i (Sparse.Vec.get z i -. (sq *. Sparse.Vec.get col i))
        done
    done
  in
  Krylov.Precond.of_apply
    ~name:(base.Krylov.Precond.name ^ "+woodbury")
    ~nnz:(base.Krylov.Precond.nnz + (k * k))
    apply

(* ------------------------------------------------------------------ *)
(* Versioned sessions. *)

module Session = struct
  type rung = Rhs_only | Local | Low_rank | Full

  let rung_name = function
    | Rhs_only -> "rhs-only"
    | Local -> "local"
    | Low_rank -> "low-rank"
    | Full -> "full"

  type update_report = {
    version : int;
    rung : rung;
    columns : int;
    support : int;
    skipped : Robust.Fallback.attempt list;
    t_update : float;
    changes : Sddm.Edit.change list;
  }

  type t = {
    id : int;
    seed : int;
    buckets : int;
    heavy_factor : float;
    max_fraction : float;
    low_rank_max : int;
    state : Sddm.Edit.state;
    mutable version : int;
    mutable perm : Sparse.Perm.t;
    mutable pinv : int array;
    mutable upd : Factor.Rand_chol.updatable;
    mutable prepared : Solver.prepared;
    mutable base_precond : Krylov.Precond.t;
        (* the factor's own preconditioner, without any Woodbury wrapper;
           in-place refactors keep it valid, so restoring it is free *)
    pending : (int * int, float) Hashtbl.t;
        (* accumulated (A_current - A_factor) in ORIGINAL node space,
           keyed (i, j) with i <= j; nonempty exactly while the factor
           lags the matrix (low-rank rung in force) *)
  }

  let next_id = ref 0

  (* The session's preparation: partitioned ordering + LT-RChol
     factorization, identical (bit-for-bit, same seed discipline) to
     [Solver.powerrchol_prepare], but through the updatable factorization
     so later edits can re-eliminate in place. *)
  let build ~seed ~buckets ~heavy_factor problem =
    let g = problem.Sddm.Problem.graph in
    let t0 = Unix.gettimeofday () in
    let perm = Solver.powerrchol_order ~heavy_factor g in
    let t1 = Unix.gettimeofday () in
    let upd =
      Obs.span "factor" (fun () ->
          let gp = Sddm.Graph.permute g perm in
          let d = problem.Sddm.Problem.d in
          let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
          let rng = Rng.create seed in
          Factor.Lt_rchol.factorize_updatable ~buckets ~rng gp ~d:dp)
    in
    let t2 = Unix.gettimeofday () in
    let l = Factor.Rand_chol.factor upd in
    let prepared =
      Solver.make_prepared ~solver_name:"powerrchol" problem
        ~precond:(Krylov.Precond.of_factor ~name:"powerrchol" ~perm l)
        ~t_reorder:(t1 -. t0) ~t_precond:(t2 -. t1)
        ~factor_nnz:(Factor.Lower.nnz l)
    in
    (perm, upd, prepared)

  let create ?(buckets = Factor.Lt_rchol.default_buckets)
      ?(heavy_factor = Solver.default_heavy_factor)
      ?(seed = Solver.default_seed) ?(max_fraction = 0.25)
      ?(low_rank_max = 16) problem =
    let state = Sddm.Edit.of_problem problem in
    let perm, upd, prepared =
      build ~seed ~buckets ~heavy_factor (Sddm.Edit.problem state)
    in
    incr next_id;
    {
      id = !next_id;
      seed;
      buckets;
      heavy_factor;
      max_fraction;
      low_rank_max;
      state;
      version = 0;
      perm;
      pinv = Sparse.Perm.inverse perm;
      upd;
      prepared;
      base_precond = prepared.Solver.precond;
      pending = Hashtbl.create 32;
    }

  let id s = s.id
  let version s = s.version
  let problem s = Sddm.Edit.problem s.state
  let prepared s = s.prepared

  let close _ = ()

  let add_pending s i j dv =
    let key = (min i j, max i j) in
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt s.pending key) in
    let next = cur +. dv in
    if next = 0.0 then Hashtbl.remove s.pending key
    else Hashtbl.replace s.pending key next

  let pending_support s =
    let nodes = Hashtbl.create 32 in
    Hashtbl.iter
      (fun (i, j) _ ->
        Hashtbl.replace nodes i ();
        Hashtbl.replace nodes j ())
      s.pending;
    let support = Array.make (Hashtbl.length nodes) 0 in
    let q = ref 0 in
    Hashtbl.iter
      (fun i () ->
        support.(!q) <- i;
        incr q)
      nodes;
    Array.sort compare support;
    support

  (* Full re-prepare: rebuild the problem from the edited edge arrays
     (zero-weight edges dropped — exactly what a from-scratch prepare of
     the edited system sees), reorder, refactorize. The PCG workspace is
     carried over so warm-started iteration state survives the swap. *)
  let full_reprepare s ~generation_before =
    let p =
      if Sddm.Edit.generation s.state <> generation_before then
        (* a pattern-growing edit already rebuilt and adopted the problem *)
        Sddm.Edit.problem s.state
      else Sddm.Edit.rebuild s.state
    in
    let perm, upd, prepared =
      build ~seed:s.seed ~buckets:s.buckets ~heavy_factor:s.heavy_factor p
    in
    s.perm <- perm;
    s.pinv <- Sparse.Perm.inverse perm;
    s.upd <- upd;
    s.prepared <-
      { prepared with Solver.workspace = s.prepared.Solver.workspace };
    s.base_precond <- s.prepared.Solver.precond;
    Hashtbl.reset s.pending

  (* Mirror one value-only change into the updatable factorization
     (permuted space) and the pending-delta ledger (original space).
     Returns [false] when the edited edge is missing from the frozen
     pattern — the caller must escalate to a full re-prepare. *)
  let mirror s change =
    match change with
    | Sddm.Edit.No_change | Sddm.Edit.Rhs_changed _ -> true
    | Sddm.Edit.Pattern_grew _ -> false
    | Sddm.Edit.Edge_changed { u; v; from_w; to_w } -> (
      let pu = s.pinv.(u) and pv = s.pinv.(v) in
      match Factor.Rand_chol.find_edge s.upd pu pv with
      | None -> false
      | Some slot ->
        Factor.Rand_chol.set_edge_weight s.upd slot to_w;
        let dw = to_w -. from_w in
        add_pending s u u dw;
        add_pending s v v dw;
        add_pending s u v (-.dw);
        true)
    | Sddm.Edit.Excess_changed { node; from_s; to_s } ->
      Factor.Rand_chol.set_excess s.upd s.pinv.(node) to_s;
      add_pending s node node (to_s -. from_s);
      true

  let update s edits =
    let t0 = Unix.gettimeofday () in
    (* validate the whole batch before touching anything: an invalid edit
       mid-list must not leave the session half-mutated *)
    let n = Sddm.Problem.n (Sddm.Edit.problem s.state) in
    List.iter (Sddm.Edit.validate ~n) edits;
    let generation_before = Sddm.Edit.generation s.state in
    let changes = Sddm.Edit.apply_all s.state edits in
    s.version <- s.version + 1;
    let matrix_changed =
      List.exists
        (function
          | Sddm.Edit.Edge_changed _ | Sddm.Edit.Excess_changed _
          | Sddm.Edit.Pattern_grew _ -> true
          | Sddm.Edit.No_change | Sddm.Edit.Rhs_changed _ -> false)
        changes
    in
    let skip = Robust.Fallback.skipped in
    let rung, columns, support, skipped =
      if not matrix_changed then (Rhs_only, 0, 0, [])
      else if
        List.exists
          (function Sddm.Edit.Pattern_grew _ -> true | _ -> false)
          changes
        || not (List.for_all (mirror s) changes)
      then begin
        (* the frozen pattern cannot represent the edit *)
        let reason = "sparsity pattern changed" in
        full_reprepare s ~generation_before;
        ( Full,
          0,
          0,
          [ skip ~rung:"local" ~reason; skip ~rung:"low-rank" ~reason ] )
      end
      else begin
        match
          Factor.Rand_chol.refactor s.upd ~max_fraction:s.max_fraction
        with
        | Factor.Rand_chol.Refactored { columns } ->
          (* the factor now matches the edited matrix: drop any Woodbury
             wrapper and return to the factor's own preconditioner (the
             in-place value updates kept it valid) *)
          Hashtbl.reset s.pending;
          s.prepared <-
            { s.prepared with Solver.precond = s.base_precond };
          (Local, columns, 0, [])
        | Factor.Rand_chol.Too_large { limit } ->
          let sup = pending_support s in
          let k = Array.length sup in
          let local_skip =
            skip ~rung:"local"
              ~reason:
                (Printf.sprintf "ancestor closure exceeds %d columns" limit)
          in
          if k > 0 && k <= s.low_rank_max then begin
            match
              woodbury_precond ~base:s.base_precond
                ~n:(Sddm.Problem.n (Sddm.Edit.problem s.state))
                ~support:sup ~delta:s.pending
            with
            | wb ->
              s.prepared <- { s.prepared with Solver.precond = wb };
              (Low_rank, 0, k, [ local_skip ])
            | exception Failure _ ->
              full_reprepare s ~generation_before;
              ( Full,
                0,
                k,
                [
                  local_skip;
                  skip ~rung:"low-rank" ~reason:"singular Woodbury core";
                ] )
          end
          else begin
            full_reprepare s ~generation_before;
            ( Full,
              0,
              k,
              [
                local_skip;
                skip ~rung:"low-rank"
                  ~reason:
                    (Printf.sprintf "edit support %d exceeds %d" k
                       s.low_rank_max);
              ] )
          end
        | exception Factor.Rand_chol.Breakdown { column; pivot } ->
          (* the in-place re-elimination died mid-sweep; the factor holds
             a mix of old and new values, so only a full rebuild is safe *)
          let reason =
            Printf.sprintf "refactor breakdown: pivot %g at column %d" pivot
              column
          in
          full_reprepare s ~generation_before;
          ( Full,
            0,
            0,
            [ skip ~rung:"local" ~reason; skip ~rung:"low-rank" ~reason ] )
      end
    in
    Obs.count "engine/update" 1;
    Obs.count (Printf.sprintf "engine/update/%s" (rung_name rung)) 1;
    {
      version = s.version;
      rung;
      columns;
      support;
      skipped;
      t_update = Unix.gettimeofday () -. t0;
      changes;
    }

  let solve ?rtol ?max_iter ?deadline ?x0 ?b s =
    Solver.solve_prepared ?rtol ?max_iter ?deadline ?x0
      ~b:(match b with
          | Some b -> b
          | None -> (Sddm.Edit.problem s.state).Sddm.Problem.b)
      s.prepared
end

let update = Session.update

let prepare ?config:_ solver problem = Solver.prepare solver problem

let clear () = ()
