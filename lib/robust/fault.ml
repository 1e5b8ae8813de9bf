(* Fault-injection combinators.

   Each combinator takes a healthy input and returns a corrupted copy
   exhibiting one specific real-world pathology. They exist so the test
   suite can prove, fault by fault, that the solve path either produces a
   typed diagnostic/breakdown or recovers — never a silent wrong answer.
   All combinators are deterministic (no hidden randomness). *)

let rebuild a f =
  let n_rows, n_cols = Sparse.Csc.dims a in
  let t =
    Sparse.Triplet.create ~capacity:(max (Sparse.Csc.nnz a) 1) ~n_rows ~n_cols
      ()
  in
  Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
      match f i j v with
      | Some v' -> Sparse.Triplet.add t i j v'
      | None -> ());
  Sparse.Csc.of_triplet t

(* NaN-contaminate the [entry]-th stored nonzero (default: the first). *)
let inject_nan ?(entry = 0) a =
  let k = ref (-1) in
  rebuild a (fun _ _ v ->
      incr k;
      Some (if !k = entry then Float.nan else v))

(* Copy of [b] with [b.(row)] replaced by NaN. *)
let inject_nan_rhs ?(row = 0) (b : Sparse.Vec.t) =
  let b' = Sparse.Vec.copy b in
  let n = Sparse.Vec.length b' in
  if n > 0 then b'.{min row (n - 1)} <- Float.nan;
  b'

(* Shrink (or flip the sign of) one diagonal entry so the row is no longer
   diagonally dominant. [factor] defaults to 0.25: diag becomes strictly
   smaller than the off-diagonal absolute sum for any interior grid row. *)
let break_dominance ?(row = 0) ?(factor = 0.25) a =
  rebuild a (fun i j v ->
      Some (if i = row && j = row then v *. factor else v))

(* Erase row [row] and column [row] entirely: the classic "dead net" — a
   node that appears in the netlist but has no stamps. The resulting matrix
   has an empty row and is singular. *)
let zero_row ~row a = rebuild a (fun i j v -> if i = row || j = row then None else Some v)

(* Scale every off-diagonal entry incident to [row] by [scale] without
   touching the diagonals — models a corrupted conductance (wrong unit
   prefix, e.g. mS read as kS). Symmetry is preserved; diagonal dominance
   is destroyed at [row] and its neighbors for any [scale] > 1. *)
let corrupt_weight_scale ?(scale = 1e6) ?(row = 0) a =
  rebuild a (fun i j v ->
      Some (if i <> j && (i = row || j = row) then v *. scale else v))

(* Cut the last [island] vertices off from the rest of the graph by deleting
   every crossing edge. With [grounded = true] (default) each island vertex
   keeps/gains a tie to ground, so the result is a valid SDDM system that a
   component-splitting solver recovers exactly; with [grounded = false] the
   island becomes a floating pure-Laplacian component — the classic
   singular power-grid pathology a pre-flight diagnostic must catch. *)
let disconnect_island ?(island = 4) ?(grounded = true) (p : Sddm.Problem.t) =
  let g = p.Sddm.Problem.graph in
  let n = Sddm.Graph.n_vertices g in
  let island = max 1 (min island (n - 1)) in
  let cut = n - island in
  let in_island v = v >= cut in
  let edges = ref [] in
  Sddm.Graph.iter_edges g (fun u v w ->
      if in_island u = in_island v then edges := (u, v, w) :: !edges);
  let d = Array.copy p.Sddm.Problem.d in
  for v = cut to n - 1 do
    if grounded then d.(v) <- Float.max d.(v) 0.5 else d.(v) <- 0.0
  done;
  let graph = Sddm.Graph.create ~n ~edges:(Array.of_list !edges) in
  Sddm.Problem.of_graph
    ~name:(p.Sddm.Problem.name ^ "+island")
    ~graph ~d ~b:p.Sddm.Problem.b
