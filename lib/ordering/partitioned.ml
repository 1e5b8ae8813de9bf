(* Partition-aware fill-reducing ordering.

   Recursively bisecting the graph — BFS level structure from a
   pseudo-peripheral vertex, cut at the level that splits the count most
   evenly, separator emitted after both halves — and only then
   degree-sorting each block keeps the local fill behavior of Alg. 4
   inside every block and keeps a grid region's vertices together in the
   order, so an ECO edit's re-elimination closure through the factor
   stays local (DESIGN.md §14). The partitioning step is RCHOL's (Chen,
   Liang & Biros, arXiv:2011.07769, §3.3), where it buys parallel
   scaling; here the factorization is one sequential pass (DESIGN.md
   §15), and the partitioning buys locality only. It also stays the
   PowerRChol default because the benchmark ledger's traced preparation
   calls [order] and the [golden] test rows record its bits.

   Everything runs over flat arrays (DESIGN.md §15). A dissection's
   members are the slice [members.(lo .. hi-1)]; it is partitioned in
   place into side a | side b | separator, each part holding its members
   in reverse of the slice's order, and the parts' positions in [members]
   are their positions in the permutation. A stamp array marks the current
   set, BFS runs on one int-array queue, and a block's Alg. 4 statistics
   are per-slot arrays, so one call allocates O(n) and builds no subgraph.
   The member order, the sum order of a block's average weight and the
   unreached-vertex rule are part of the contract: the permutation is
   pinned by a differential test against a reference copy.

   The leaf size target depends only on the graph (a fixed fraction of n,
   floored), never on the domain count, so the ordering — and everything
   derived from it — is bit-identical on any machine. *)

let leaf_fraction = 1.0 /. 64.0
let leaf_min = 1024

let order ?(heavy_factor = 10.0) g =
  Obs.span "partitioned_order" @@ fun () ->
  let g = Sddm.Graph.coalesce g in
  let n = Sddm.Graph.n_vertices g in
  if n = 0 then [||]
  else begin
    let { Sddm.Graph.ptr; nbr; wgt } = Sddm.Graph.adjacency g in
    let target =
      max leaf_min (int_of_float (ceil (leaf_fraction *. float_of_int n)))
    in
    let perm = Array.make n 0 in
    let members = Array.init n (fun i -> i) in
    (* BFS queue; then the copy a partition scatters from; then a block's
       per-slot degrees — never two at once *)
    let queue = Array.make n 0 in
    let w_max = Array.make n 0.0 in
    let level = Array.make n (-1) in
    let mark = Array.make n 0 in
    let stamp = ref 0 in
    let blocks = ref 0 in
    let enter lo hi =
      incr stamp;
      for k = lo to hi - 1 do
        mark.(members.(k)) <- !stamp
      done
    in
    (* BFS over the current set; queue.(0 .. len-1), the returned [len],
       holds the reached vertices by ascending level *)
    let bfs start =
      level.(start) <- 0;
      queue.(0) <- start;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        let next = level.(u) + 1 in
        for k = ptr.(u) to ptr.(u + 1) - 1 do
          let v = nbr.(k) in
          if mark.(v) = !stamp && level.(v) < 0 then begin
            level.(v) <- next;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      !tail
    in
    (* Alg. 4 on the subgraph induced by slot i = members.(lo + i). The
       average weight sums the block's edges from the last slot to the
       first and each adjacency row backwards: a float sum's rounding
       decides ties at the heavy threshold, so its order is fixed. *)
    let order_block lo hi =
      incr blocks;
      enter lo hi;
      let deg = queue in
      let sum = ref 0.0 and m = ref 0 in
      for i = hi - lo - 1 downto 0 do
        let v = members.(lo + i) in
        let d = ref 0 and best = ref 0.0 in
        for k = ptr.(v + 1) - 1 downto ptr.(v) do
          let u = nbr.(k) in
          if mark.(u) = !stamp then begin
            let w = wgt.(k) in
            incr d;
            if w > !best then best := w;
            if u > v then begin
              sum := !sum +. w;
              incr m
            end
          end
        done;
        deg.(i) <- !d;
        w_max.(i) <- !best
      done;
      let w_avg = if !m = 0 then 0.0 else !sum /. float_of_int !m in
      Degree_sort.order_slots ~heavy_factor ~w_avg ~deg ~w_max (hi - lo) perm
        lo;
      for k = lo to hi - 1 do
        perm.(k) <- members.(lo + perm.(k))
      done
    in
    let rec dissect lo hi =
      let count = hi - lo in
      if count <= target then order_block lo hi
      else begin
        enter lo hi;
        for k = lo to hi - 1 do
          level.(members.(k)) <- -1
        done;
        let len = bfs members.(lo) in
        (* restart from the first vertex reached at the deepest level *)
        let j = ref (len - 1) in
        while !j > 0 && level.(queue.(!j - 1)) = level.(queue.(len - 1)) do
          decr j
        done;
        let far = queue.(!j) in
        for k = 0 to len - 1 do
          level.(queue.(k)) <- -1
        done;
        let reached = bfs far in
        let max_level = level.(queue.(reached - 1)) in
        if max_level = 0 then order_block lo hi
        else begin
          (* Cut at the level splitting the vertex count most evenly — the
             mid-level of the eccentricity can be wildly lopsided on meshes
             with via/pad shortcuts, and a lopsided cut multiplies the
             number of separators the recursion emits. Unreached vertices
             count as level 0 and join side a. [split] is the number of
             reached vertices at level <= cut. *)
          let unreached = count - reached in
          let cut = ref 0 and split = ref 0 and best = ref max_int in
          let j = ref 0 in
          for l = 0 to max_level - 1 do
            while level.(queue.(!j)) <= l do
              incr j
            done;
            let imbalance = abs (count - (2 * (unreached + !j))) in
            if imbalance < !best then begin
              best := imbalance;
              cut := l;
              split := !j
            end
          done;
          let cut = !cut and split = !split in
          (* Only level [cut] can touch a vertex above the cut; those that
             do form the separator, marked by level -2. *)
          let n_sep = ref 0 in
          let k = ref (split - 1) in
          while !k >= 0 && level.(queue.(!k)) = cut do
            let v = queue.(!k) in
            let boundary = ref false in
            let e = ref ptr.(v) in
            while (not !boundary) && !e < ptr.(v + 1) do
              let u = nbr.(!e) in
              if mark.(u) = !stamp && level.(u) > cut then boundary := true;
              incr e
            done;
            if !boundary then begin
              level.(v) <- -2;
              incr n_sep
            end;
            decr k
          done;
          let n_b = reached - split in
          let n_a = count - n_b - !n_sep in
          (* the copy is read backwards, so each part holds its members in
             reverse of the slice's order *)
          Array.blit members lo queue lo count;
          let a = ref lo and b = ref (lo + n_a) and s = ref (lo + n_a + n_b) in
          for k = hi - 1 downto lo do
            let v = queue.(k) in
            let dst =
              if level.(v) > cut then b else if level.(v) = -2 then s else a
            in
            members.(!dst) <- v;
            incr dst
          done;
          dissect lo (lo + n_a);
          dissect (lo + n_a) (lo + n_a + n_b);
          if !n_sep > 0 then order_block (lo + n_a + n_b) hi
        end
      end
    in
    dissect 0 n;
    if Obs.enabled () then Obs.gauge "partition_blocks" (float_of_int !blocks);
    perm
  end
