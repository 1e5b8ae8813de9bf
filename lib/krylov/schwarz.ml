let blocks ?(block_size = 512) g =
  let n = Sddm.Graph.n_vertices g in
  assert (block_size > 0);
  (* BFS order over all components, chunked *)
  let order = Array.make n 0 in
  let visited = Array.make n false in
  let out = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if not visited.(s) then begin
      visited.(s) <- true;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        order.(!out) <- u;
        incr out;
        Sddm.Graph.iter_neighbors g u (fun v _ ->
            if not visited.(v) then begin
              visited.(v) <- true;
              Queue.add v q
            end)
      done
    end
  done;
  assert (!out = n);
  let n_blocks = (n + block_size - 1) / block_size in
  Array.init n_blocks (fun b ->
      let lo = b * block_size in
      let hi = min n (lo + block_size) in
      Array.sub order lo (hi - lo))

type block = {
  members : int array;  (* global indices, including overlap *)
  factor : Factor.Lower.t;
}

let grow_overlap g ~overlap ~members ~mark ~stamp =
  Array.iter (fun v -> mark.(v) <- stamp) members;
  let current = ref (Array.to_list members) in
  let all = ref (List.rev !current) in
  for _ = 1 to overlap do
    let ring = ref [] in
    List.iter
      (fun u ->
        Sddm.Graph.iter_neighbors g u (fun v _ ->
            if mark.(v) <> stamp then begin
              mark.(v) <- stamp;
              ring := v :: !ring
            end))
      !current;
    all := List.rev_append !ring !all;
    current := !ring
  done;
  Array.of_list (List.rev !all)

let extract_submatrix a members =
  let k = Array.length members in
  let local_index = Hashtbl.create (2 * k) in
  Array.iteri (fun li gi -> Hashtbl.replace local_index gi li) members;
  let t = Sparse.Triplet.create ~capacity:(4 * k) ~n_rows:k ~n_cols:k () in
  Array.iteri
    (fun lj gj ->
      Sparse.Csc.iter_col a gj (fun gi v ->
          match Hashtbl.find_opt local_index gi with
          | Some li -> Sparse.Triplet.add t li lj v
          | None -> ()))
    members;
  Sparse.Csc.of_triplet t

let preconditioner ?(block_size = 512) ?(overlap = 1) p =
  let a = p.Sddm.Problem.a in
  let g = p.Sddm.Problem.graph in
  let n = Sddm.Problem.n p in
  let partition = blocks ~block_size g in
  let mark = Array.make n (-1) in
  let built =
    Array.mapi
      (fun b members ->
        let members =
          if overlap > 0 then grow_overlap g ~overlap ~members ~mark ~stamp:b
          else members
        in
        let sub = extract_submatrix a members in
        (* principal submatrices of an SPD matrix are SPD, but a block of
           a singular-direction-free SDDM can still be exactly singular if
           it has no boundary (whole isolated component with zero excess
           diagonal cannot happen for a valid Problem). Regularize on the
           off chance of breakdown from rounding. *)
        let factor =
          match Factor.Chol.factorize sub with
          | l -> l
          | exception Factor.Chol.Not_positive_definite _ ->
            let k = Array.length members in
            let eps = 1e-12 *. Sparse.Csc.one_norm sub in
            Factor.Chol.factorize
              (Sparse.Csc.add sub
                 (Sparse.Csc.scale (Sparse.Csc.identity k) eps))
        in
        { members; factor })
      partition
  in
  let nnz =
    Array.fold_left (fun acc b -> acc + Factor.Lower.nnz b.factor) 0 built
  in
  (* one local right-hand side per block, per application *)
  let locals =
    Precond.pool (fun () ->
        Array.map (fun b -> Sparse.Vec.create (Array.length b.members)) built)
  in
  let apply (r : Sparse.Vec.t) (z : Sparse.Vec.t) =
    Sparse.Vec.fill z 0.0;
    Precond.with_pooled locals (fun local_rs ->
        Array.iteri
          (fun i b ->
            let local_r = local_rs.(i) in
            let k = Array.length b.members in
            for li = 0 to k - 1 do
              local_r.{li} <- r.{b.members.(li)}
            done;
            Factor.Lower.solve_in_place b.factor local_r;
            Factor.Lower.solve_transpose_in_place b.factor local_r;
            for li = 0 to k - 1 do
              z.{b.members.(li)} <- z.{b.members.(li)} +. local_r.{li}
            done)
          built)
  in
  Precond.of_apply ~name:"schwarz" ~nnz apply
