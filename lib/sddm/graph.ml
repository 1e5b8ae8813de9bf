type adjacency = {
  ptr : int array;  (* length n+1 *)
  nbr : int array;  (* neighbor vertex per half-edge *)
  wgt : float array;
}

type t = {
  n : int;
  us : int array;  (* us.(e) < vs.(e) *)
  vs : int array;
  ws : float array;
  mutable adj : adjacency option;  (* cache, built from coalesced edges *)
  mutable coalesced : bool;
}

let of_arrays ~n ~us ~vs ~ws =
  let m = Array.length us in
  if Array.length vs <> m || Array.length ws <> m then
    invalid_arg
      (Printf.sprintf "Graph.of_arrays: %d us, %d vs and %d ws (lengths differ)"
         m (Array.length vs) (Array.length ws));
  let us' = Array.make m 0 and vs' = Array.make m 0 in
  for e = 0 to m - 1 do
    let u = us.(e) and v = vs.(e) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph: vertex out of range";
    if u = v then invalid_arg "Graph: self loop";
    if ws.(e) <= 0.0 then invalid_arg "Graph: nonpositive weight";
    if u < v then begin us'.(e) <- u; vs'.(e) <- v end
    else begin us'.(e) <- v; vs'.(e) <- u end
  done;
  { n; us = us'; vs = vs'; ws = Array.copy ws; adj = None; coalesced = false }

let create ~n ~edges =
  let m = Array.length edges in
  let us = Array.make m 0 and vs = Array.make m 0 and ws = Array.make m 0.0 in
  Array.iteri
    (fun e (u, v, w) ->
      us.(e) <- u;
      vs.(e) <- v;
      ws.(e) <- w)
    edges;
  of_arrays ~n ~us ~vs ~ws

let n_vertices g = g.n
let n_edges g = Array.length g.us

let edge g e = (g.us.(e), g.vs.(e), g.ws.(e))

let iter_edges g f =
  for e = 0 to n_edges g - 1 do
    f g.us.(e) g.vs.(e) g.ws.(e)
  done

(* Stable counting sort of the edge ids in [src] by [key.(e)], a vertex:
   O(n + m), and edges with equal keys keep their order in [src]. *)
let counting_sort ~n key src =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun e -> start.(key.(e) + 1) <- start.(key.(e) + 1) + 1) src;
  for x = 1 to n do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let dst = Array.make (Array.length src) 0 in
  Array.iter
    (fun e ->
      let x = key.(e) in
      dst.(start.(x)) <- e;
      start.(x) <- start.(x) + 1)
    src;
  dst

(* Coalesce the parallel edges of valid edge arrays ([gus.(e) < gvs.(e)]):
   order the edge ids by (u,v), then sum runs. Sorting by v and then,
   stably, by u is a radix sort on the pair, so the copies of a pair stay
   in input order and are summed in it. *)
let coalesce_edges ~n gus gvs gws =
  let m = Array.length gus in
  let by_v = counting_sort ~n gvs (Array.init m (fun e -> e)) in
  let order = counting_sort ~n gus by_v in
  let us = Array.make m 0 and vs = Array.make m 0 and ws = Array.make m 0.0 in
  let out = ref 0 in
  let k = ref 0 in
  while !k < m do
    let e0 = order.(!k) in
    let u = gus.(e0) and v = gvs.(e0) in
    let acc = ref 0.0 in
    while !k < m && gus.(order.(!k)) = u && gvs.(order.(!k)) = v do
      acc := !acc +. gws.(order.(!k));
      incr k
    done;
    us.(!out) <- u;
    vs.(!out) <- v;
    ws.(!out) <- !acc;
    incr out
  done;
  let keep a = if !out = m then a else Array.sub a 0 !out in
  { n; us = keep us; vs = keep vs; ws = keep ws; adj = None; coalesced = true }

let coalesce g = if g.coalesced then g else coalesce_edges ~n:g.n g.us g.vs g.ws

let build_adjacency g =
  let g = coalesce g in
  let n = g.n and m = n_edges g in
  let ptr = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    ptr.(g.us.(e) + 1) <- ptr.(g.us.(e) + 1) + 1;
    ptr.(g.vs.(e) + 1) <- ptr.(g.vs.(e) + 1) + 1
  done;
  for i = 1 to n do
    ptr.(i) <- ptr.(i) + ptr.(i - 1)
  done;
  let nbr = Array.make (max (2 * m) 1) 0 in
  let wgt = Array.make (max (2 * m) 1) 0.0 in
  let cursor = Array.copy ptr in
  for e = 0 to m - 1 do
    let u = g.us.(e) and v = g.vs.(e) and w = g.ws.(e) in
    nbr.(cursor.(u)) <- v;
    wgt.(cursor.(u)) <- w;
    cursor.(u) <- cursor.(u) + 1;
    nbr.(cursor.(v)) <- u;
    wgt.(cursor.(v)) <- w;
    cursor.(v) <- cursor.(v) + 1
  done;
  { ptr; nbr; wgt }

let adjacency g =
  match g.adj with
  | Some a -> a
  | None ->
    let a = build_adjacency g in
    g.adj <- Some a;
    a

let upper g =
  let g = coalesce g in
  let ptr = Array.make (g.n + 1) 0 in
  for e = 0 to n_edges g - 1 do
    ptr.(g.us.(e) + 1) <- ptr.(g.us.(e) + 1) + 1
  done;
  for i = 1 to g.n do
    ptr.(i) <- ptr.(i) + ptr.(i - 1)
  done;
  { ptr; nbr = g.vs; wgt = g.ws }

let degree g u =
  let a = adjacency g in
  a.ptr.(u + 1) - a.ptr.(u)

let degrees g =
  let a = adjacency g in
  Array.init g.n (fun u -> a.ptr.(u + 1) - a.ptr.(u))

let iter_neighbors g u f =
  let a = adjacency g in
  for k = a.ptr.(u) to a.ptr.(u + 1) - 1 do
    f a.nbr.(k) a.wgt.(k)
  done

let max_incident_weight g =
  let best = Array.make g.n 0.0 in
  iter_edges g (fun u v w ->
      if w > best.(u) then best.(u) <- w;
      if w > best.(v) then best.(v) <- w);
  best

let total_weight g =
  let acc = ref 0.0 in
  iter_edges g (fun _ _ w -> acc := !acc +. w);
  !acc

let average_weight g =
  let m = n_edges g in
  if m = 0 then 0.0 else total_weight g /. float_of_int m

let connected_components g =
  let label = Array.make g.n (-1) in
  let count = ref 0 in
  let stack = Stack.create () in
  for s = 0 to g.n - 1 do
    if label.(s) < 0 then begin
      let c = !count in
      incr count;
      Stack.push s stack;
      label.(s) <- c;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        iter_neighbors g u (fun v _ ->
            if label.(v) < 0 then begin
              label.(v) <- c;
              Stack.push v stack
            end)
      done
    end
  done;
  (label, !count)

(* Column j holds its lower neighbours, its diagonal, then its upper
   neighbours. The coalesced edges are sorted by (u, v), so every edge
   (x, j) with x < j precedes every edge (j, y): when the pass over the
   edges reaches the run of edges (j, _), column j's lower neighbours are
   written, ascending in x, and its cursor sits on the diagonal's slot;
   the run then writes the upper neighbours, ascending in y. No column is
   sorted. The diagonal is stored even when it is 0, so every vertex is
   in the pattern, as in a circuit simulator's stamped matrix. *)
let to_sddm g d =
  if Array.length d <> g.n then
    invalid_arg
      (Printf.sprintf "Graph.to_sddm: d has %d entries for %d vertices"
         (Array.length d) g.n);
  Array.iteri
    (fun i x ->
      if not (x >= 0.0) then
        invalid_arg
          (Printf.sprintf "Graph.to_sddm: d.(%d) = %g is not >= 0" i x))
    d;
  let g = coalesce g in
  let n = g.n and m = n_edges g in
  let us = g.us and vs = g.vs and ws = g.ws in
  Sparse.Idx.check_index_capacity ~what:"Graph.to_sddm" (n + (2 * m));
  let[@inline] set_idx a k i = Sparse.Idx.(unsafe_set_elt a k (of_int i)) in
  (* [next.(j)]: j's degree, then column j's write cursor; [diag.(j)]:
     the weights of j's incident edges, summed in edge order *)
  let next = Array.make n 0 and diag = Array.make n 0.0 in
  for e = 0 to m - 1 do
    let u = us.(e) and v = vs.(e) and w = ws.(e) in
    next.(u) <- next.(u) + 1;
    next.(v) <- next.(v) + 1;
    diag.(u) <- diag.(u) +. w;
    diag.(v) <- diag.(v) +. w
  done;
  let col_ptr = Sparse.Idx.make (n + 1) in
  let start = ref 0 in
  for j = 0 to n - 1 do
    let degree = next.(j) in
    set_idx col_ptr j !start;
    next.(j) <- !start;
    start := !start + degree + 1
  done;
  set_idx col_ptr n !start;
  let nnz = !start in
  let row_idx = Sparse.Idx.make (max nnz 1) in
  let values = Sparse.Vec.create (max nnz 1) in
  let e = ref 0 in
  for j = 0 to n - 1 do
    let k = ref next.(j) in
    set_idx row_idx !k j;
    Sparse.Vec.unsafe_set values !k (diag.(j) +. d.(j));
    while !e < m && us.(!e) = j do
      let y = vs.(!e) and w = -.ws.(!e) in
      incr k;
      set_idx row_idx !k y;
      Sparse.Vec.unsafe_set values !k w;
      let ky = next.(y) in
      set_idx row_idx ky j;
      Sparse.Vec.unsafe_set values ky w;
      next.(y) <- ky + 1;
      incr e
    done
  done;
  Sparse.Csc.of_raw ~n_rows:n ~n_cols:n ~col_ptr ~row_idx ~values

let split_sddm a =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then
    invalid_arg
      (Printf.sprintf "of_sddm: matrix not square (%d rows, %d columns)"
         n_rows n_cols);
  let n = n_rows in
  let edges = ref [] in
  let off_sum = Array.make n 0.0 in
  let diag = Array.make n 0.0 in
  (* Each violation class records its first offender and a running count so
     the error message tells the caller exactly where to look. *)
  let pos_count = ref 0 in
  let pos_first = ref (0, 0, 0.0) in
  let nf_count = ref 0 in
  let nf_first = ref (0, 0, 0.0) in
  Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
      if not (Float.is_finite v) then begin
        if !nf_count = 0 then nf_first := (i, j, v);
        incr nf_count
      end;
      if i = j then diag.(j) <- v
      else begin
        if v > 0.0 then begin
          if !pos_count = 0 then pos_first := (i, j, v);
          incr pos_count
        end;
        if v < 0.0 then begin
          off_sum.(j) <- off_sum.(j) -. v;
          (* Keep each undirected edge once, from its upper-triangle copy;
             symmetry of the value is checked against the mirror entry. *)
          if i < j then edges := (i, j, -.v) :: !edges
        end
      end);
  if !nf_count > 0 then begin
    let i, j, v = !nf_first in
    invalid_arg
      (Printf.sprintf
         "of_sddm: %d non-finite entr%s (first: A(%d,%d) = %g)"
         !nf_count
         (if !nf_count = 1 then "y" else "ies")
         i j v)
  end;
  if !pos_count > 0 then begin
    let i, j, v = !pos_first in
    invalid_arg
      (Printf.sprintf
         "of_sddm: %d positive off-diagonal entr%s (first: A(%d,%d) = %g); \
          SDDM matrices need nonpositive off-diagonals"
         !pos_count
         (if !pos_count = 1 then "y" else "ies")
         i j v)
  end;
  (* Verify symmetry of the off-diagonal pattern/values. *)
  let asym_count = ref 0 in
  let asym_first = ref (0, 0, 0.0, 0.0) in
  List.iter
    (fun (i, j, w) ->
      let mirror = Sparse.Csc.get a j i in
      let scale = max (Float.abs w) 1.0 in
      if Float.abs (mirror +. w) > 1e-12 *. scale then begin
        if !asym_count = 0 then asym_first := (i, j, -.w, mirror);
        incr asym_count
      end)
    !edges;
  if !asym_count > 0 then begin
    let i, j, aij, aji = !asym_first in
    invalid_arg
      (Printf.sprintf
         "of_sddm: matrix not symmetric at %d entr%s (first: A(%d,%d) = %g \
          but A(%d,%d) = %g)"
         !asym_count
         (if !asym_count = 1 then "y" else "ies")
         i j aij j i aji)
  end;
  let d = Array.make n 0.0 in
  let dom_count = ref 0 in
  let dom_first = ref (0, 0.0, 0.0) in
  for i = 0 to n - 1 do
    let excess = diag.(i) -. off_sum.(i) in
    let scale = max diag.(i) 1.0 in
    if excess < -1e-10 *. scale then begin
      if !dom_count = 0 then dom_first := (i, diag.(i), off_sum.(i));
      incr dom_count
    end;
    d.(i) <- max excess 0.0
  done;
  if !dom_count > 0 then begin
    let i, dg, os = !dom_first in
    invalid_arg
      (Printf.sprintf
         "of_sddm: diagonal dominance lost at %d row%s (first: row %d has \
          diagonal %g < off-diagonal sum %g)"
         !dom_count
         (if !dom_count = 1 then "" else "s")
         i dg os)
  end;
  (create ~n ~edges:(Array.of_list !edges), d)

let of_sddm a = split_sddm a

let is_sddm a =
  match split_sddm a with
  | _ -> true
  | exception Invalid_argument _ -> false

(* The relabelled edges of a valid graph under a valid permutation are
   valid, so they go straight to the coalescing sort. *)
let permute g p =
  if Array.length p <> g.n then
    invalid_arg
      (Printf.sprintf "Graph.permute: permutation of %d for %d vertices"
         (Array.length p) g.n);
  if not (Sparse.Perm.is_valid p) then
    invalid_arg "Graph.permute: not a permutation";
  let pinv = Sparse.Perm.inverse p in
  let m = n_edges g in
  let us = Array.make m 0 and vs = Array.make m 0 in
  for e = 0 to m - 1 do
    let a = pinv.(g.us.(e)) and b = pinv.(g.vs.(e)) in
    if a < b then begin
      us.(e) <- a;
      vs.(e) <- b
    end
    else begin
      us.(e) <- b;
      vs.(e) <- a
    end
  done;
  coalesce_edges ~n:g.n us vs g.ws
