(* Versioned sessions for incremental re-solves (ECO flow): an editable
   system with its ordering, an updatable factorization and a version,
   revalidated after each edit batch by the cheapest correct rung.

   Nothing here is shared between callers. A session, like a
   Solver.prepared handle, belongs to whoever created it and goes away
   when they drop it. *)

module Session = struct
  type rung = Rhs_only | Local | Full

  let rung_name = function
    | Rhs_only -> "rhs-only"
    | Local -> "local"
    | Full -> "full"

  type update_report = {
    version : int;
    rung : rung;
    columns : int;
    skipped : Robust.Fallback.attempt list;
    t_update : float;
    changes : Sddm.Edit.change list;
  }

  type t = {
    seed : int;
    state : Sddm.Edit.state;
    mutable version : int;
    mutable pinv : int array;
    mutable upd : Factor.Rand_chol.updatable;
    mutable prepared : Solver.prepared;
  }

  (* The session's preparation: Solver.powerrchol_prepare's, through the
     updatable factorization so later edits can re-eliminate in place. *)
  let build ~seed problem =
    Solver.rand_chol_prepare ~name:"powerrchol" ~order:Solver.powerrchol_order
      ~factorize:Factor.Lt_rchol.factorize_updatable
      ~lower:Factor.Rand_chol.factor ~seed problem

  let create ?(seed = Solver.default_seed) problem =
    let state = Sddm.Edit.of_problem problem in
    let perm, upd, prepared = build ~seed (Sddm.Edit.problem state) in
    {
      seed;
      state;
      version = 0;
      pinv = Sparse.Perm.inverse perm;
      upd;
      prepared;
    }

  let version s = s.version
  let problem s = Sddm.Edit.problem s.state
  let prepared s = s.prepared

  let close _ = ()

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
    let perm, upd, prepared = build ~seed:s.seed p in
    s.pinv <- Sparse.Perm.inverse perm;
    s.upd <- upd;
    s.prepared <-
      { prepared with Solver.workspace = s.prepared.Solver.workspace }

  (* Mirror one change into the updatable factorization (permuted
     space). Returns [false] when the pattern grew or the edited edge is
     missing from the frozen pattern — the caller must escalate to a full
     re-prepare, which discards anything already staged. *)
  let mirror s change =
    match change with
    | Sddm.Edit.No_change | Sddm.Edit.Rhs_changed _ -> true
    | Sddm.Edit.Pattern_grew _ -> false
    | Sddm.Edit.Edge_changed { u; v; to_w; _ } -> (
      match Factor.Rand_chol.find_edge s.upd s.pinv.(u) s.pinv.(v) with
      | None -> false
      | Some slot ->
        Factor.Rand_chol.set_edge_weight s.upd slot to_w;
        true)
    | Sddm.Edit.Excess_changed { node; to_s; _ } ->
      Factor.Rand_chol.set_excess s.upd s.pinv.(node) to_s;
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
    let rung, columns, skipped =
      if not matrix_changed then (Rhs_only, 0, [])
      else
        let full reason =
          full_reprepare s ~generation_before;
          (Full, 0, [ Robust.Fallback.skipped ~rung:"local" ~reason ])
        in
        if not (List.for_all (mirror s) changes) then
          full "sparsity pattern changed"
        else
          match Factor.Rand_chol.refactor s.upd with
          | columns -> (Local, columns, [])
          | exception Factor.Rand_chol.Breakdown { column; pivot } ->
            (* the in-place re-elimination died mid-sweep; the factor
               holds a mix of old and new values, so only a full rebuild
               is safe *)
            full
              (Printf.sprintf "refactor breakdown: pivot %g at column %d"
                 pivot column)
    in
    Obs.count "engine/update" 1;
    Obs.count (Printf.sprintf "engine/update/%s" (rung_name rung)) 1;
    {
      version = s.version;
      rung;
      columns;
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
