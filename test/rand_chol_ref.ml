(* Reference elimination for the differential test in test_factor.ml: a
   verbatim copy of Factor.Rand_chol as it stood before the elimination
   moved its edge lists into flat arrays. Each column's edge list was a
   growable run of its own, built from the coalesced edges by a closure
   per edge and doubled as fills arrived; the updatable looked edges up
   in a table keyed by endpoint pairs. It is the definition the library's
   factor must reproduce bit for bit, and the recorder its refactor
   reads must reproduce with it. *)

open Factor

type sort =
  | Exact_sort
  | Counting_sort of { buckets : int }
  | No_sort

type sampling = Per_neighbor | Shared_random

exception Breakdown of { column : int; pivot : float }

let expected_clique_weight ~d_k ~w_i ~w_j = w_i *. w_j /. d_k

(* ------------------------------------------------------------------ *)
(* Growable runs, the one append buffer of the elimination: the per-column
   edge lists (edge (a,b) with a<b lives in column a), the factor entries
   and the record slots. Entry [q] holds [stride] ints at
   [ids.(stride * q) ..] and one float at [vals.(q)]; a full run doubles,
   to at least [min_cap] entries.                                       *)

type run = {
  stride : int;
  min_cap : int;
  mutable ids : int array;
  mutable vals : float array;
  mutable len : int;
}

let make_run ~stride ~min_cap cap =
  {
    stride;
    min_cap;
    ids = Array.make (stride * cap) 0;
    vals = Array.make cap 0.0;
    len = 0;
  }

(* reallocate to hold at least [need] entries *)
let grow r need =
  let cap = max need (max (2 * r.len) r.min_cap) in
  let ids = Array.make (r.stride * cap) 0 and vals = Array.make cap 0.0 in
  Array.blit r.ids 0 ids 0 (r.stride * r.len);
  Array.blit r.vals 0 vals 0 r.len;
  r.ids <- ids;
  r.vals <- vals

(* append (i, x) to a stride-1 run *)
let push r i x =
  if r.len = Array.length r.vals then grow r (r.len + 1);
  r.ids.(r.len) <- i;
  r.vals.(r.len) <- x;
  r.len <- r.len + 1

(* append (a, b, x) to a stride-2 run *)
let push2 r a b x =
  if r.len = Array.length r.vals then grow r (r.len + 1);
  r.ids.(2 * r.len) <- a;
  r.ids.((2 * r.len) + 1) <- b;
  r.vals.(r.len) <- x;
  r.len <- r.len + 1

(* free a consumed run's storage *)
let release r =
  r.ids <- [||];
  r.vals <- [||];
  r.len <- 0

(* ------------------------------------------------------------------ *)
(* In-place insertion/quick sort of idx.(lo..hi) keyed by key.(idx.(.)),
   ascending; avoids per-column allocation in the Exact_sort path. The
   key is a [float array], so every comparison is an unboxed float
   compare, not a call to polymorphic compare.                         *)

let rec quicksort_by idx (key : float array) lo hi =
  if hi - lo < 12 then
    (* insertion sort for small ranges *)
    for i = lo + 1 to hi do
      let x = idx.(i) in
      let kx = key.(x) in
      let j = ref (i - 1) in
      while !j >= lo && key.(idx.(!j)) > kx do
        idx.(!j + 1) <- idx.(!j);
        decr j
      done;
      idx.(!j + 1) <- x
    done
  else begin
    (* median-of-three pivot *)
    let mid = (lo + hi) / 2 in
    let swap a b =
      let t = idx.(a) in
      idx.(a) <- idx.(b);
      idx.(b) <- t
    in
    if key.(idx.(mid)) < key.(idx.(lo)) then swap mid lo;
    if key.(idx.(hi)) < key.(idx.(lo)) then swap hi lo;
    if key.(idx.(hi)) < key.(idx.(mid)) then swap hi mid;
    let pivot = key.(idx.(mid)) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while key.(idx.(!i)) < pivot do incr i done;
      while key.(idx.(!j)) > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    if lo < !j then quicksort_by idx key lo !j;
    if !i < hi then quicksort_by idx key !i hi
  end

(* ------------------------------------------------------------------ *)

(* The elimination's scratch: the gathered column, the sort and sampling
   buffers, the stamp counter, the keyed per-column generator (reseeded
   from [(base_key, column)] before each column's draws) and the telemetry
   accumulators. *)
type workspace = {
  mutable nbrs : int array;        (* gathered unique neighbors *)
  mutable sorted : int array;      (* counting-sort output *)
  mutable pfs : float array;       (* inclusive prefix sums of weights *)
  mutable targets : float array;   (* Eq. 6 targets *)
  mutable locs : int array;        (* Alg. 2 output *)
  wval : float array;              (* coalesced weight per neighbor id *)
  wmark : int array;               (* stamp per neighbor id *)
  mutable bucket_count : int array;
  mutable bucket_stamp : int array;
  mutable stamp : int;
  krng : Rng.t;
  mutable t_sort : float;
  mutable n_sort : int;
  mutable t_merge : float;
  mutable n_merge : int;
  mutable sampled : int;
}

let make_workspace n =
  {
    nbrs = Array.make 16 0;
    sorted = Array.make 16 0;
    pfs = Array.make 16 0.0;
    targets = Array.make 16 0.0;
    locs = Array.make 16 0;
    wval = Array.make n 0.0;
    wmark = Array.make n 0;
    bucket_count = Array.make 16 0;
    bucket_stamp = Array.make 16 0;
    stamp = 0;
    krng = Rng.keyed ~seed:0 0;
    t_sort = 0.0;
    n_sort = 0;
    t_merge = 0.0;
    n_merge = 0;
    sampled = 0;
  }

let ensure_capacity ws m =
  if Array.length ws.nbrs < m then begin
    let cap = max (2 * Array.length ws.nbrs) m in
    ws.nbrs <- Array.make cap 0;
    ws.sorted <- Array.make cap 0;
    ws.pfs <- Array.make cap 0.0;
    ws.targets <- Array.make cap 0.0;
    ws.locs <- Array.make cap 0
  end

let ensure_buckets ws b =
  if Array.length ws.bucket_count < b + 2 then begin
    ws.bucket_count <- Array.make (b + 2) 0;
    ws.bucket_stamp <- Array.make (b + 2) 0
  end

(* Approximate counting sort (paper §3.1): normalize weights by the column
   maximum, quantize into [min buckets (4 m)] buckets, output bucket by
   bucket. Capping the bucket count at a multiple of the neighbor count
   keeps the per-column cost O(m) even for tiny degrees while leaving the
   quantization unchanged for large columns. Stamped counters avoid paying
   O(buckets) to clear. *)
let counting_sort ws ~buckets ~m ~stamp =
  let b = max 1 (min buckets (4 * m)) in
  ensure_buckets ws b;
  let count = ws.bucket_count and bstamp = ws.bucket_stamp in
  let nbrs = ws.nbrs and wval = ws.wval in
  let m_k = ref 0.0 in
  let w_min = ref infinity in
  for q = 0 to m - 1 do
    let w = wval.(nbrs.(q)) in
    if w > !m_k then m_k := w;
    if w < !w_min then w_min := w
  done;
  let fb = float_of_int b in
  (* Quantization: the paper buckets linearly by w / w_max. When weights
     span several orders of magnitude (realistic power grids) that
     collapses all light edges into bucket 1 and destroys the ordering, so
     for spreads beyond one decade we switch to logarithmic buckets. The
     log key uses frexp: w = mant * 2^exp with mant in [0.5, 1) makes
     (exp + mant) monotone in w and far cheaper than log. Bucket ids are
     cached in ws.locs (free until the sampling phase). *)
  let log_scale = !m_k > 10.0 *. !w_min in
  let key w =
    if log_scale then begin
      let mant, exp = Float.frexp w in
      float_of_int exp +. mant
    end
    else w
  in
  let key_min = key !w_min and key_max = key !m_k in
  let span = Float.max (key_max -. key_min) 1e-300 in
  let buckets_of_elts = ws.locs in
  for q = 0 to m - 1 do
    let x = int_of_float (ceil ((key wval.(nbrs.(q)) -. key_min) /. span *. fb)) in
    let bu = if x < 1 then 1 else if x > b then b else x in
    buckets_of_elts.(q) <- bu;
    if bstamp.(bu) <> stamp then begin
      bstamp.(bu) <- stamp;
      count.(bu) <- 0
    end;
    count.(bu) <- count.(bu) + 1
  done;
  (* prefix offsets: b <= 4m keeps this O(m) *)
  let offset = ref 0 in
  for bu = 1 to b do
    if bstamp.(bu) = stamp then begin
      let c = count.(bu) in
      count.(bu) <- !offset;
      offset := !offset + c
    end
  done;
  for q = 0 to m - 1 do
    let bu = buckets_of_elts.(q) in
    ws.sorted.(count.(bu)) <- nbrs.(q);
    count.(bu) <- count.(bu) + 1
  done;
  (* copy back so nbrs holds the (approximately) sorted order *)
  Array.blit ws.sorted 0 ws.nbrs 0 m

(* ------------------------------------------------------------------ *)
(* Recording for updatable factorizations: the sampling decisions of one
   factorization run, captured so edited inputs can be re-eliminated over
   the {e fixed} pattern without consuming any randomness. Per column we
   keep the pivot [d_k], the excess diagonal at pivot time, and one slot
   per sampled fill edge, a stride-2 run entry (target column = min
   endpoint, fill row = max endpoint, current weight). A target of [-1]
   marks the rare slot whose fill was dropped at factorization time; it
   stays dropped forever because the pattern is frozen. Slot
   [fill_ptr.(k) + j] corresponds to neighbor position [j] of column [k]'s
   stored pattern, which is what lets the refactor recompute the fill
   value from the same prefix sums. *)

type recorder = {
  r_d_elim : float array;  (* pivot d_k per column *)
  r_d_exc : float array;  (* dvec at pivot per column *)
  r_fill_ptr : int array;  (* n+1: slot range per source column *)
  r_fill : run;  (* the fill slots, in source-column order *)
}

let make_recorder n =
  {
    r_d_elim = Array.make n 0.0;
    r_d_exc = Array.make n 0.0;
    r_fill_ptr = Array.make (n + 1) 0;
    r_fill = make_run ~stride:2 ~min_cap:16 0;
  }

(* ------------------------------------------------------------------ *)
(* The elimination order (DESIGN.md §15).

   The factor is the ascending elimination of the graph: one pass over
   columns 0 .. n-1. Column k's output depends on four things: the order
   of the entries pushed into its list, its excess diagonal, its keyed
   stream (reseeded from [(base_key, k)]) and its own arithmetic. The
   pass delivers every push and bump in ascending source order. *)

(* [g] must already be coalesced (both external entry points guarantee
   it); the recorder's edge indices refer to the coalesced edge order. *)
let factorize_gen ~sort ~sampling ~rng ~record g ~d =
  let n = Sddm.Graph.n_vertices g in
  if Array.length d <> n then
    invalid_arg
      (Printf.sprintf
         "Rand_chol.factorize: d has %d entries for a graph of %d vertices"
         (Array.length d) n);
  let obs = Obs.enabled () in
  (* One draw from the caller's generator keys every per-column stream;
     the caller-visible [~rng] contract is unchanged while draw order
     inside the factorization stops mattering. *)
  let base_key = Rng.derive_key rng in
  (* --- initial per-column edge lists --- *)
  let init_count = Array.make n 0 in
  Sddm.Graph.iter_edges g (fun u v _ ->
      init_count.(min u v) <- init_count.(min u v) + 1);
  let cols =
    Array.init n (fun k -> make_run ~stride:1 ~min_cap:4 init_count.(k))
  in
  Sddm.Graph.iter_edges g (fun u v w ->
      let a = min u v and b = max u v in
      push cols.(a) b w);
  let dvec = Array.copy d in
  let ws = make_workspace n in
  (* factor entries (diagonal first) and record slots, in column order *)
  let out = make_run ~stride:1 ~min_cap:4 ((4 * n) + 16) in
  let slots =
    match record with
    | Some r -> r.r_fill
    | None -> make_run ~stride:2 ~min_cap:16 0
  in
  let recording = record <> None in
  let col_len = Array.make (max n 1) 0 in
  (* --- the per-column elimination: column [k]'s factor entries go to
     [out], its record slots to [slots] --- *)
  let eliminate k =
    let c = cols.(k) in
    (* ---- gather and coalesce the live neighbors of k ---- *)
    ws.stamp <- ws.stamp + 1;
    let tag = ws.stamp in
    let m = ref 0 in
    ensure_capacity ws c.len;
    for q = 0 to c.len - 1 do
      let i = c.ids.(q) and w = c.vals.(q) in
      if ws.wmark.(i) = tag then ws.wval.(i) <- ws.wval.(i) +. w
      else begin
        ws.wmark.(i) <- tag;
        ws.wval.(i) <- w;
        ws.nbrs.(!m) <- i;
        incr m
      end
    done;
    let m = !m in
    release c;
    (* ---- pivot ---- *)
    let d_k = ref dvec.(k) in
    for q = 0 to m - 1 do
      d_k := !d_k +. ws.wval.(ws.nbrs.(q))
    done;
    let d_k = !d_k in
    (* pivot guard: catches zero and negative pivots (ungrounded Laplacian
       component, lost dominance) and, because NaN fails every comparison,
       NaN-contaminated weights as well *)
    if not (d_k > 0.0 && d_k < infinity) then
      raise (Breakdown { column = k; pivot = d_k });
    (match record with
     | Some r ->
       r.r_d_elim.(k) <- d_k;
       r.r_d_exc.(k) <- dvec.(k)
     | None -> ());
    (* ---- sort neighbors by weight (ascending) ---- *)
    let st0 = if obs then Obs.now () else 0.0 in
    (match sort with
     | No_sort -> ()
     | Exact_sort -> if m > 1 then quicksort_by ws.nbrs ws.wval 0 (m - 1)
     | Counting_sort { buckets } ->
       (* hybrid cutoff: insertion sort is both exact and faster for the
          tiny columns that dominate power grids; the O(m) bound is kept
          because the cutoff is constant *)
       if m > 1 && m <= 16 then quicksort_by ws.nbrs ws.wval 0 (m - 1)
       else if m > 1 then counting_sort ws ~buckets ~m ~stamp:tag);
    if obs && m > 1 then begin
      ws.t_sort <- ws.t_sort +. (Obs.now () -. st0);
      ws.n_sort <- ws.n_sort + 1
    end;
    (* ---- emit column k of L ---- *)
    col_len.(k) <- m + 1;
    let sqrt_dk = sqrt d_k in
    push out k sqrt_dk;
    for q = 0 to m - 1 do
      let i = ws.nbrs.(q) in
      push out i (-.ws.wval.(i) /. sqrt_dk)
    done;
    if m > 0 then begin
      (* ---- excess-diagonal update ----
         Alg. 1 line 7 as printed updates D(n_j) proportionally to D(n_j)
         itself, which cannot propagate ground coupling out of D(k): a path
         graph grounded at one end would go singular at the last pivot. The
         exact Schur complement of the implicit ground edge (weight D(k,k))
         is D(n_j) += D(k,k) * w_j / d_k — the ground-node formulation of
         the original RChol — so that is what we compute. *)
      let d_excess_k = dvec.(k) in
      for q = 0 to m - 1 do
        let i = ws.nbrs.(q) in
        let bump = d_excess_k *. ws.wval.(i) /. d_k in
        dvec.(i) <- dvec.(i) +. bump
      done;
      if m > 1 then begin
        (* ---- prefix sums ---- *)
        let acc = ref 0.0 in
        for q = 0 to m - 1 do
          acc := !acc +. ws.wval.(ws.nbrs.(q));
          ws.pfs.(q) <- !acc
        done;
        let total = ws.pfs.(m - 1) in
        (* ---- partner selection, on the column's keyed stream ---- *)
        Rng.reseed_keyed ws.krng ~seed:base_key k;
        let krng = ws.krng in
        let mt0 = if obs then Obs.now () else 0.0 in
        (match sampling with
         | Per_neighbor ->
           for j = 0 to m - 2 do
             (* With ascending weights the suffix mass is always positive;
                without sorting (ablation) a dominant early weight can make
                the suffix vanish in floating point — the sampled edge
                weight would be 0 anyway, so skip via the self-partner
                sentinel. *)
             if ws.pfs.(m - 1) -. ws.pfs.(j) > 0.0 then
               ws.locs.(j) <- Rng.discrete_prefix krng ws.pfs ~lo:j ~hi:(m - 1)
             else ws.locs.(j) <- j
           done
         | Shared_random ->
           let r = Rng.float_open krng in
           let fm = float_of_int m in
           for j = 0 to m - 2 do
             ws.targets.(j) <-
               ws.pfs.(j)
               +. ((float_of_int j +. r) /. fm *. (total -. ws.pfs.(j)))
           done;
           Locate.locate_into ~a:ws.pfs ~a_len:m ~targets:ws.targets
             ~t_len:(m - 1) ~out:ws.locs);
        if obs then begin
          ws.t_merge <- ws.t_merge +. (Obs.now () -. mt0);
          ws.n_merge <- ws.n_merge + 1
        end;
        (* ---- add the sampled fill edges ---- *)
        for j = 0 to m - 2 do
          (* locate can land at j itself when rounding makes the target
             collapse onto pfs.(j); the true partner index is strictly
             greater, so bump it. *)
          let lj = if ws.locs.(j) <= j then j + 1 else ws.locs.(j) in
          let n_j = ws.nbrs.(j) in
          let n_l = ws.nbrs.(lj) in
          let s_j = total -. ws.pfs.(j) in
          let w_new = s_j *. ws.wval.(n_j) /. d_k in
          if w_new > 0.0 && n_j <> n_l then begin
            let a = min n_j n_l and b = max n_j n_l in
            push cols.(a) b w_new;
            ws.sampled <- ws.sampled + 1;
            if recording then push2 slots a b w_new
          end
          else if recording then push2 slots (-1) 0 0.0
        done
      end
    end
  in
  Obs.span "sweep" (fun () ->
      for k = 0 to n - 1 do
        eliminate k
      done);
  (* --- L's arrays, copied from the output run --- *)
  let total = out.len in
  let l =
    Obs.span "assemble" @@ fun () ->
    Sparse.Idx.check_index_capacity ~what:"Rand_chol.factorize" total;
    let col_ptr = Sparse.Idx.make (n + 1) in
    let acc = ref 0 in
    for k = 0 to n - 1 do
      Sparse.Idx.set col_ptr k !acc;
      acc := !acc + col_len.(k)
    done;
    Sparse.Idx.set col_ptr n total;
    let l_rows = Sparse.Idx.make (max total 1) in
    let l_vals = Sparse.Vec.create (max total 1) in
    for q = 0 to total - 1 do
      Sparse.Idx.set l_rows q out.ids.(q);
      Sparse.Vec.set l_vals q out.vals.(q)
    done;
    Lower.of_arrays ~n ~col_ptr:(Sparse.Idx.to_array col_ptr)
      ~rows:(Array.sub (Sparse.Idx.to_array l_rows) 0 total)
      ~vals:(Array.sub (Sparse.Vec.to_array l_vals) 0 total)
  in
  (* recorder: column k owns max (m_k - 1) 0 slots *)
  (match record with
   | Some r ->
     for k = 0 to n - 1 do
       r.r_fill_ptr.(k + 1) <- r.r_fill_ptr.(k) + max (col_len.(k) - 2) 0
     done
   | None -> ());
  if obs then begin
    (* the sub-phase accumulators flush as aggregate spans *)
    Obs.record_span "sort" ~seconds:ws.t_sort ~calls:ws.n_sort;
    Obs.record_span "merge" ~seconds:ws.t_merge ~calls:ws.n_merge;
    Obs.count "sampled_edges" ws.sampled;
    (* absolute sizes of this factorization — gauges so re-factoring in
       the same capture overwrites instead of summing *)
    Obs.gauge "factor_nnz" (float_of_int total);
    Obs.gauge "fill_nnz"
      (float_of_int (max 0 (total - n - Sddm.Graph.n_edges g)))
  end;
  l

let factorize ~sort ~sampling ~rng g ~d =
  factorize_gen ~sort ~sampling ~rng ~record:None
    (Sddm.Graph.coalesce g) ~d

(* ------------------------------------------------------------------ *)
(* Updatable factorizations: fixed-pattern value-only re-elimination.

   The pattern of L and every sampling decision (neighbor order, fill
   targets) are frozen at factorization time; editing edge weights or the
   excess diagonal re-runs only the {e arithmetic} of the elimination, on
   exactly the columns whose values can change — the closure of the
   edited columns under L's subdiagonal pattern. No RNG is
   consumed, so a refactor is deterministic and leaves every other
   column's values bit-identical.

   Per column [k] the recomputation needs three ingredients, all
   recoverable from the frozen record plus the current factor values:

   - the coalesced neighbor weights: the column's base edges (current
     weights) plus the recorded fill edges targeting it, whose values
     were refreshed when their (strictly smaller) source columns were
     re-eliminated earlier in the same ascending sweep;
   - the running excess diagonal [dvec(k)]: the edited base excess plus
     one contribution per stored entry of row [k] of L — eliminating
     column [s] bumped [dvec(k)] by [d_exc(s) * wval_s(k) / d_elim(s)],
     and [wval_s(k) = -L(k,s) * L(s,s)] recovers the weight from the
     factor itself, so the contribution is [-L(k,s) * d_exc(s) / L(s,s)]
     (gathered through the updatable's row index, from L's live values);
   - the pivot [d_k = dvec(k) + sum of neighbor weights], in stored
     pattern order — the same summation order as the original run. *)

type updatable = {
  u_n : int;
  u_l : Lower.t;
  (* current (edited) inputs, owned by the updatable *)
  u_ews : float array;  (* coalesced edge weights *)
  u_ed : float array;  (* excess diagonal *)
  u_eus : int array;  (* coalesced edge endpoints, u < v *)
  u_evs : int array;
  u_edge_of : (int * int, int) Hashtbl.t;
  (* base incidence: per column, its base edges (structure only) *)
  u_base_ptr : int array;  (* n+1 *)
  u_base_rows : int array;  (* other endpoint *)
  u_base_widx : int array;  (* index into u_ews *)
  (* frozen elimination record *)
  u_rec : recorder;
  u_ft_ptr : int array;  (* n+1: live fill slots grouped by target column *)
  u_ft_idx : int array;
  (* row index of L's strictly lower part: row i's entries, ascending by
     column, are L(i, u_row_cols.(p)) at storage position u_row_pos.(p),
     for p in u_row_ptr.(i) .. u_row_ptr.(i+1) - 1 *)
  u_row_ptr : int array;  (* n+1 *)
  u_row_cols : int array;
  u_row_pos : int array;
  (* dirty seed columns since the last successful refactor *)
  mutable u_dirty : int list;
  (* scratch: closure marking, then the re-elimination's weight gather *)
  u_mark : int array;
  mutable u_stamp : int;
  u_wval : float array;
  u_wmark : int array;
  mutable u_wstamp : int;
  mutable u_pfs : float array;  (* prefix sums over one column's pattern *)
}

let factorize_updatable ~sort ~sampling ~rng g ~d =
  let g = Sddm.Graph.coalesce g in
  let n = Sddm.Graph.n_vertices g in
  let r = make_recorder n in
  let l = factorize_gen ~sort ~sampling ~rng ~record:(Some r) g ~d in
  (* base incidence and the edge index, in coalesced edge order *)
  let m = Sddm.Graph.n_edges g in
  let ews = Array.make (max m 1) 0.0 in
  let eus = Array.make (max m 1) 0 in
  let evs = Array.make (max m 1) 0 in
  let edge_of = Hashtbl.create (max m 16) in
  let base_ptr = Array.make (n + 1) 0 in
  let k = ref 0 in
  Sddm.Graph.iter_edges g (fun u v w ->
      eus.(!k) <- u;
      evs.(!k) <- v;
      ews.(!k) <- w;
      Hashtbl.replace edge_of (u, v) !k;
      base_ptr.(u + 1) <- base_ptr.(u + 1) + 1;
      incr k);
  for i = 1 to n do
    base_ptr.(i) <- base_ptr.(i) + base_ptr.(i - 1)
  done;
  let base_rows = Array.make (max m 1) 0 in
  let base_widx = Array.make (max m 1) 0 in
  let cursor = Array.copy base_ptr in
  for e = 0 to m - 1 do
    let u = eus.(e) in
    base_rows.(cursor.(u)) <- evs.(e);
    base_widx.(cursor.(u)) <- e;
    cursor.(u) <- cursor.(u) + 1
  done;
  (* live fill slots grouped by target column *)
  let fill = r.r_fill in
  let ft_ptr = Array.make (n + 1) 0 in
  for s = 0 to fill.len - 1 do
    let a = fill.ids.(2 * s) in
    if a >= 0 then ft_ptr.(a + 1) <- ft_ptr.(a + 1) + 1
  done;
  for i = 1 to n do
    ft_ptr.(i) <- ft_ptr.(i) + ft_ptr.(i - 1)
  done;
  let ft_idx = Array.make (max ft_ptr.(n) 1) 0 in
  let fcursor = Array.copy ft_ptr in
  for s = 0 to fill.len - 1 do
    let a = fill.ids.(2 * s) in
    if a >= 0 then begin
      ft_idx.(fcursor.(a)) <- s;
      fcursor.(a) <- fcursor.(a) + 1
    end
  done;
  (* the row counts of L's strictly lower part *)
  let row_ptr = Array.make (n + 1) 0 in
  let col_ptr = l.Lower.col_ptr and rows = l.Lower.rows in
  for j = 0 to n - 1 do
    for q = col_ptr.(j) + 1 to col_ptr.(j + 1) - 1 do
      let i = rows.(q) in
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    done
  done;
  for i = 1 to n do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  (* the row index, filled by ascending column: each row then lists its
     entries in the order the refactor sums them *)
  let row_cols = Array.make (max row_ptr.(n) 1) 0 in
  let row_pos = Array.make (max row_ptr.(n) 1) 0 in
  let rcursor = Array.copy row_ptr in
  for j = 0 to n - 1 do
    for q = col_ptr.(j) + 1 to col_ptr.(j + 1) - 1 do
      let i = rows.(q) in
      row_cols.(rcursor.(i)) <- j;
      row_pos.(rcursor.(i)) <- q;
      rcursor.(i) <- rcursor.(i) + 1
    done
  done;
  (* force the diagonal cache the refactor gathers through *)
  ignore (Lower.diag l);
  {
    u_n = n;
    u_l = l;
    u_ews = ews;
    u_ed = Array.copy d;
    u_eus = eus;
    u_evs = evs;
    u_edge_of = edge_of;
    u_base_ptr = base_ptr;
    u_base_rows = base_rows;
    u_base_widx = base_widx;
    u_rec = r;
    u_ft_ptr = ft_ptr;
    u_ft_idx = ft_idx;
    u_row_ptr = row_ptr;
    u_row_cols = row_cols;
    u_row_pos = row_pos;
    u_dirty = [];
    u_mark = Array.make n (-1);
    u_stamp = 0;
    u_wval = Array.make n 0.0;
    u_wmark = Array.make n (-1);
    u_wstamp = 0;
    u_pfs = Array.make 16 0.0;
  }

let factor u = u.u_l
let find_edge u i j = Hashtbl.find_opt u.u_edge_of (min i j, max i j)
let edge_weight u e = u.u_ews.(e)
let excess u i = u.u_ed.(i)
let dirty u = u.u_dirty <> []

let set_edge_weight u e w =
  if not (w >= 0.0 && w < infinity) then
    invalid_arg "Rand_chol.set_edge_weight: weight must be finite nonnegative";
  if u.u_ews.(e) <> w then begin
    u.u_ews.(e) <- w;
    u.u_dirty <- u.u_eus.(e) :: u.u_dirty
  end

let set_excess u i s =
  if not (s >= 0.0 && s < infinity) then
    invalid_arg "Rand_chol.set_excess: excess must be finite nonnegative";
  if u.u_ed.(i) <> s then begin
    u.u_ed.(i) <- s;
    u.u_dirty <- i :: u.u_dirty
  end

(* The closure sweep: mark the seeds, then extend the marking through the
   factor's column patterns in one ascending pass (column k's values feed
   every subdiagonal row of column k — both the excess-diagonal bump and
   the fill edges land inside that row set). The marked columns are
   exactly those whose values the edits can change. *)
let refactor u =
  match u.u_dirty with
  | [] -> 0
  | seeds ->
    let n = u.u_n in
    let l = u.u_l in
    u.u_stamp <- u.u_stamp + 1;
    let stamp = u.u_stamp in
    List.iter (fun s -> u.u_mark.(s) <- stamp) seeds;
    let col_ptr = l.Lower.col_ptr and rows = l.Lower.rows in
    let count = ref 0 in
    let scols = ref (Array.make 64 0) in
    for k = List.fold_left min n seeds to n - 1 do
      if u.u_mark.(k) = stamp then begin
        if !count = Array.length !scols then begin
          let bigger = Array.make (2 * !count) 0 in
          Array.blit !scols 0 bigger 0 !count;
          scols := bigger
        end;
        !scols.(!count) <- k;
        incr count;
        for q = col_ptr.(k) + 1 to col_ptr.(k + 1) - 1 do
          u.u_mark.(rows.(q)) <- stamp
        done
      end
    done;
    let cols = Array.sub !scols 0 !count in
    let emit kc buf =
      let lo = col_ptr.(kc) and hi = col_ptr.(kc + 1) in
      let m = hi - lo - 1 in
      let wval = u.u_wval and wmark = u.u_wmark in
      let fill = u.u_rec.r_fill in
      (* gather current neighbor weights over the frozen pattern *)
      u.u_wstamp <- u.u_wstamp + 1;
      let wtag = u.u_wstamp in
      let touch i w =
        if wmark.(i) = wtag then wval.(i) <- wval.(i) +. w
        else begin
          wmark.(i) <- wtag;
          wval.(i) <- w
        end
      in
      for q = u.u_base_ptr.(kc) to u.u_base_ptr.(kc + 1) - 1 do
        touch u.u_base_rows.(q) u.u_ews.(u.u_base_widx.(q))
      done;
      for t = u.u_ft_ptr.(kc) to u.u_ft_ptr.(kc + 1) - 1 do
        let s = u.u_ft_idx.(t) in
        touch fill.ids.((2 * s) + 1) fill.vals.(s)
      done;
      (* running excess diagonal: base excess plus the bump from every
         earlier column whose pattern contains kc (= row kc of L,
         ascending by column) *)
      let ldiag = Lower.diag l in
      let acc = ref u.u_ed.(kc) in
      for p = u.u_row_ptr.(kc) to u.u_row_ptr.(kc + 1) - 1 do
        let s = u.u_row_cols.(p) in
        let lks = l.Lower.vals.(u.u_row_pos.(p)) in
        acc := !acc +. (-.lks *. u.u_rec.r_d_exc.(s) /. ldiag.(s))
      done;
      let dvec = !acc in
      (* pivot over the stored pattern order *)
      let d_k = ref dvec in
      for q = lo + 1 to hi - 1 do
        let i = rows.(q) in
        if wmark.(i) <> wtag then begin
          (* a frozen-pattern neighbor whose every contributing edge
             now has zero weight still occupies its slot *)
          wmark.(i) <- wtag;
          wval.(i) <- 0.0
        end;
        d_k := !d_k +. wval.(i)
      done;
      let d_k = !d_k in
      if not (d_k > 0.0 && d_k < infinity) then
        raise (Breakdown { column = kc; pivot = d_k });
      let sqrt_dk = sqrt d_k in
      buf.(0) <- sqrt_dk;
      for q = lo + 1 to hi - 1 do
        buf.(q - lo) <- -.wval.(rows.(q)) /. sqrt_dk
      done;
      u.u_rec.r_d_elim.(kc) <- d_k;
      u.u_rec.r_d_exc.(kc) <- dvec;
      (* refresh this column's fill-edge weights from the new prefix
         sums; dropped slots stay dropped (frozen pattern) *)
      if m > 1 then begin
        if Array.length u.u_pfs < m then
          u.u_pfs <- Array.make (max (2 * m) 16) 0.0;
        let pfs = u.u_pfs in
        let acc = ref 0.0 in
        for q = 0 to m - 1 do
          acc := !acc +. wval.(rows.(lo + 1 + q));
          pfs.(q) <- !acc
        done;
        let total = pfs.(m - 1) in
        let slot0 = u.u_rec.r_fill_ptr.(kc) in
        for j = 0 to m - 2 do
          let s = slot0 + j in
          if fill.ids.(2 * s) >= 0 then begin
            let w_new =
              (total -. pfs.(j)) *. wval.(rows.(lo + 1 + j)) /. d_k
            in
            fill.vals.(s) <- Float.max w_new 0.0
          end
        done
      end
    in
    Lower.refactor_columns l ~cols ~emit;
    u.u_dirty <- [];
    !count
