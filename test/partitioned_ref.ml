(* Reference ordering for the differential test in test_ordering.ml: a
   verbatim copy of Ordering.Partitioned.order as it stood before the
   flat-array rewrite, together with the Ordering.Degree_sort.order it
   called (as [Degree_sort.order] below). It builds a hash table, an
   edge list and a fresh graph per block — slow, but the definition the
   library's ordering must reproduce permutation for permutation. It keeps
   its own copy of the Alg. 4 bucket rule, so a slip in the library's
   shared rule cannot hide. *)

module Degree_sort = struct
  (* Linear-time bucket sort by degree with heavy-edge promotion inside each
     degree class: two stable passes over each bucket (heavy first). *)
  let order ?(heavy_factor = 10.0) g =
    Obs.span "degree_sort" @@ fun () ->
    let n = Sddm.Graph.n_vertices g in
    let deg = Sddm.Graph.degrees g in
    let w_max = Sddm.Graph.max_incident_weight g in
    let w_avg = Sddm.Graph.average_weight g in
    let threshold = heavy_factor *. w_avg in
    let is_heavy i = w_max.(i) > threshold in
    let d_max = Array.fold_left max 0 deg in
    (* Counting sort: first count bucket sizes, then place heavy nodes at each
       bucket's front and light nodes after them, both in index order. *)
    let count = Array.make (d_max + 2) 0 in
    for i = 0 to n - 1 do
      count.(deg.(i) + 1) <- count.(deg.(i) + 1) + 1
    done;
    for d = 1 to d_max + 1 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    let heavy_in_bucket = Array.make (d_max + 1) 0 in
    for i = 0 to n - 1 do
      if is_heavy i then
        heavy_in_bucket.(deg.(i)) <- heavy_in_bucket.(deg.(i)) + 1
    done;
    let heavy_cursor = Array.init (d_max + 1) (fun d -> count.(d)) in
    let light_cursor =
      Array.init (d_max + 1) (fun d -> count.(d) + heavy_in_bucket.(d))
    in
    if Obs.enabled () then begin
      let heavy = ref 0 in
      for i = 0 to n - 1 do
        if is_heavy i then incr heavy
      done;
      (* gauges, not counters: these describe the graph being ordered, so
         repeated preparations in one capture must not sum them *)
      Obs.gauge "heavy_nodes" (float_of_int !heavy);
      Obs.gauge "max_degree" (float_of_int d_max)
    end;
    let p = Array.make n 0 in
    for i = 0 to n - 1 do
      let d = deg.(i) in
      if is_heavy i then begin
        p.(heavy_cursor.(d)) <- i;
        heavy_cursor.(d) <- heavy_cursor.(d) + 1
      end
      else begin
        p.(light_cursor.(d)) <- i;
        light_cursor.(d) <- light_cursor.(d) + 1
      end
    done;
    p
end

let default_leaf_fraction = 1.0 /. 64.0
let leaf_min = 1024

let bfs_levels g in_set level start =
  let far = ref start in
  let q = Queue.create () in
  level.(start) <- 0;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if level.(u) > level.(!far) then far := u;
    Sddm.Graph.iter_neighbors g u (fun v _ ->
        if in_set.(v) && level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end)
  done;
  !far

let order ?(heavy_factor = 10.0) ?(leaf_fraction = default_leaf_fraction) g =
  Obs.span "partitioned_order" @@ fun () ->
  let g = Sddm.Graph.coalesce g in
  let n = Sddm.Graph.n_vertices g in
  if n = 0 then [||]
  else begin
    let target =
      max leaf_min (int_of_float (ceil (leaf_fraction *. float_of_int n)))
    in
    let perm = Array.make n 0 in
    let in_set = Array.make n false in
    let level = Array.make n (-1) in
    let n_leaves = ref 0 in
    (* Degree-sort a block on its induced subgraph; used for both leaves and
       separator blocks so every block keeps the Alg. 4 low-degree-first
       elimination flavor. *)
    let order_block members ~base =
      incr n_leaves;
      let count = Array.length members in
      let local = Hashtbl.create (2 * count) in
      Array.iteri (fun i v -> Hashtbl.replace local v i) members;
      let edges = ref [] in
      Array.iter
        (fun v ->
          Sddm.Graph.iter_neighbors g v (fun u w ->
              if u > v then
                match Hashtbl.find_opt local u with
                | Some lu -> edges := (Hashtbl.find local v, lu, w) :: !edges
                | None -> ()))
        members;
      let sub = Sddm.Graph.create ~n:count ~edges:(Array.of_list !edges) in
      let p = Degree_sort.order ~heavy_factor sub in
      Array.iteri (fun k local_idx -> perm.(base + k) <- members.(local_idx)) p
    in
    let rec dissect members ~base =
      let count = Array.length members in
      if count <= target then order_block members ~base
      else begin
        Array.iter (fun v -> in_set.(v) <- true) members;
        Array.iter (fun v -> level.(v) <- -1) members;
        let far = bfs_levels g in_set level members.(0) in
        Array.iter (fun v -> level.(v) <- -1) members;
        let _ = bfs_levels g in_set level far in
        let max_level = ref 0 in
        Array.iter
          (fun v -> if level.(v) > !max_level then max_level := level.(v))
          members;
        if !max_level = 0 then begin
          Array.iter (fun v -> in_set.(v) <- false) members;
          order_block members ~base
        end
        else begin
          (* Cut at the level splitting the vertex count most evenly — the
             mid-level of the eccentricity can be wildly lopsided on meshes
             with via/pad shortcuts, and a lopsided cut multiplies the
             number of separators the recursion emits. *)
          let level_count = Array.make (!max_level + 1) 0 in
          Array.iter
            (fun v ->
              let l = if level.(v) < 0 then 0 else level.(v) in
              level_count.(l) <- level_count.(l) + 1)
            members;
          let cut = ref 0 in
          let best = ref max_int in
          let acc = ref level_count.(0) in
          for l = 0 to !max_level - 1 do
            let imbalance = abs (count - (2 * !acc)) in
            if imbalance < !best then begin
              best := imbalance;
              cut := l
            end;
            acc := !acc + level_count.(l + 1)
          done;
          let cut = !cut in
          let side_a = ref [] and side_b = ref [] and sep = ref [] in
          Array.iter
            (fun v ->
              if level.(v) >= 0 && level.(v) > cut then side_b := v :: !side_b)
            members;
          Array.iter
            (fun v ->
              if level.(v) < 0 || level.(v) <= cut then begin
                let boundary = ref false in
                Sddm.Graph.iter_neighbors g v (fun u _ ->
                    if in_set.(u) && level.(u) > cut then boundary := true);
                if !boundary then sep := v :: !sep else side_a := v :: !side_a
              end)
            members;
          Array.iter (fun v -> in_set.(v) <- false) members;
          let a = Array.of_list !side_a in
          let b = Array.of_list !side_b in
          let s = Array.of_list !sep in
          if Array.length a = 0 && Array.length b = 0 then
            order_block members ~base
          else begin
            dissect a ~base;
            dissect b ~base:(base + Array.length a);
            if Array.length s > 0 then
              order_block s ~base:(base + Array.length a + Array.length b)
          end
        end
      end
    in
    dissect (Array.init n (fun i -> i)) ~base:0;
    if Obs.enabled () then
      Obs.gauge "partition_blocks" (float_of_int !n_leaves);
    perm
  end
