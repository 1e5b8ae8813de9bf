open Sparse.Idx.Ops
module Idx = Sparse.Idx
module Vec = Sparse.Vec

(* Level-scheduled triangular solves: columns are bucketed into dependency
   levels (column i depends on column j when L(i,j) != 0, i > j); every
   column in a level can be eliminated concurrently once the previous
   levels are done. The forward solve additionally needs a row-oriented
   copy of L so each unknown is computed by gathering (one writer per
   x.(i)) instead of scattering column updates, which would race. Both the
   schedule and the row form are built once per factor and cached. *)
type schedule = {
  n_levels : int;
  level_ptr : int array;
  order : int array;
  level_of : int array;
  row_ptr : Idx.t;
  row_cols : Idx.t;
  row_vals : Vec.t;
  pos_in_row : Idx.t;
      (* column-storage index -> position in row_vals, so in-place value
         updates can keep the row-form copy coherent without a rebuild *)
}

type t = {
  n : int;
  col_ptr : Idx.t;
  rows : Idx.t;
  vals : Vec.t;
  mutable diag_cache : Vec.t option;
  mutable sched_cache : schedule option;
  (* per-slot column buffers for [refactor_columns]/[refactor_columns_grouped],
     kept on the factor so the steady-state ECO loop (edit, refactor, solve,
     repeat) allocates nothing per refactor call *)
  mutable refactor_bufs : Vec.t array;
}

let of_raw ~n ~col_ptr ~rows ~vals =
  if Idx.length col_ptr <> n + 1 then invalid_arg "Lower: bad col_ptr";
  if col_ptr.%(0) <> 0 then invalid_arg "Lower: col_ptr.(0) <> 0";
  let len = col_ptr.%(n) in
  if Idx.length rows < len || Vec.length vals < len then
    invalid_arg "Lower: rows/vals too short";
  for j = 0 to n - 1 do
    let lo = col_ptr.%(j) and hi = col_ptr.%(j + 1) in
    if lo >= hi then invalid_arg "Lower: empty column (missing diagonal)";
    if rows.%(lo) <> j then invalid_arg "Lower: first entry must be diagonal";
    if not (Vec.get vals lo > 0.0) then
      invalid_arg "Lower: nonpositive diagonal";
    for k = lo + 1 to hi - 1 do
      if rows.%(k) <= j || rows.%(k) >= n then
        invalid_arg "Lower: subdiagonal row out of range"
    done
  done;
  {
    n;
    col_ptr;
    rows;
    vals;
    diag_cache = None;
    sched_cache = None;
    refactor_bufs = [||];
  }

let of_arrays ~n ~col_ptr ~rows ~vals =
  of_raw ~n ~col_ptr:(Idx.of_array col_ptr) ~rows:(Idx.of_array rows)
    ~vals:(Vec.of_array vals)

let nnz l = l.col_ptr.%(l.n)
let dim l = l.n

let diag l =
  match l.diag_cache with
  | Some d -> d
  | None ->
    let d = Vec.init l.n (fun j -> Vec.get l.vals l.col_ptr.%(j)) in
    l.diag_cache <- Some d;
    d

let to_csc l =
  let t =
    Sparse.Triplet.create ~capacity:(max (nnz l) 1) ~n_rows:l.n ~n_cols:l.n ()
  in
  for j = 0 to l.n - 1 do
    for k = l.col_ptr.%(j) to l.col_ptr.%(j + 1) - 1 do
      Sparse.Triplet.add t l.rows.%(k) j (Vec.get l.vals k)
    done
  done;
  Sparse.Csc.of_triplet t

let of_csc a =
  let n_rows, n_cols = Sparse.Csc.dims a in
  if n_rows <> n_cols then invalid_arg "Lower.of_csc: not square";
  let lower = Sparse.Csc.lower a in
  of_raw ~n:n_cols ~col_ptr:lower.Sparse.Csc.col_ptr
    ~rows:lower.Sparse.Csc.row_idx ~vals:lower.Sparse.Csc.values

let build_schedule l =
  let n = l.n and col_ptr = l.col_ptr and rows = l.rows and vals = l.vals in
  (* Dependency levels in one ascending-j pass: level_of.(j) is final by
     the time column j is visited because every column it depends on has a
     smaller index. *)
  let level_of = Array.make (max n 1) 0 in
  let max_level = ref (-1) in
  for j = 0 to n - 1 do
    let lj = level_of.(j) in
    if lj > !max_level then max_level := lj;
    for k = col_ptr.%(j) + 1 to col_ptr.%(j + 1) - 1 do
      let i = rows.%(k) in
      if level_of.(i) <= lj then level_of.(i) <- lj + 1
    done
  done;
  let n_levels = if n = 0 then 0 else !max_level + 1 in
  (* Counting sort of columns by level keeps them ascending within each
     level, so the schedule is deterministic. *)
  let level_ptr = Array.make (n_levels + 1) 0 in
  for j = 0 to n - 1 do
    let lv = level_of.(j) in
    level_ptr.(lv + 1) <- level_ptr.(lv + 1) + 1
  done;
  for lv = 1 to n_levels do
    level_ptr.(lv) <- level_ptr.(lv) + level_ptr.(lv - 1)
  done;
  let order = Array.make (max n 1) 0 in
  let cursor = Array.copy level_ptr in
  for j = 0 to n - 1 do
    let lv = level_of.(j) in
    order.(cursor.(lv)) <- j;
    cursor.(lv) <- cursor.(lv) + 1
  done;
  (* Row form of L for the gather-style forward solve. Filling it by
     walking columns in ascending order leaves each row's entries in
     ascending column order with the diagonal last — the same term order
     the sequential column-scatter solve applies, so the scheduled solve
     produces the same floating-point result. *)
  let len = col_ptr.%(n) in
  let row_ptr = Idx.make (n + 1) in
  for k = 0 to len - 1 do
    row_ptr.%(rows.%(k) + 1) <- row_ptr.%(rows.%(k) + 1) + 1
  done;
  for i = 1 to n do
    row_ptr.%(i) <- row_ptr.%(i) + row_ptr.%(i - 1)
  done;
  let row_cols = Idx.make (max len 1) in
  let row_vals = Vec.create (max len 1) in
  let pos_in_row = Idx.make (max len 1) in
  let rcursor = Idx.sub (Idx.copy row_ptr) 0 (max n 1) in
  for j = 0 to n - 1 do
    for k = col_ptr.%(j) to col_ptr.%(j + 1) - 1 do
      let i = rows.%(k) in
      let pos = rcursor.%(i) in
      row_cols.%(pos) <- j;
      Vec.set row_vals pos (Vec.get vals k);
      pos_in_row.%(k) <- pos;
      rcursor.%(i) <- pos + 1
    done
  done;
  {
    n_levels;
    level_ptr;
    order;
    level_of;
    row_ptr;
    row_cols;
    row_vals;
    pos_in_row;
  }

let schedule l =
  match l.sched_cache with
  | Some s -> s
  | None ->
    let s = build_schedule l in
    l.sched_cache <- Some s;
    s

(* Dimension below which the preconditioner application never takes the
   scheduled path, and columns-per-level below which a level runs inline:
   level barriers cost two mutex round-trips per worker, so thin levels
   (the tail of any elimination tree) must not fan out. *)
let par_solve_min = 4096
let level_min_cols = 256

let solve_in_place l (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg "Lower.solve_in_place: vector length does not match factor";
  for j = 0 to l.n - 1 do
    let lo = l.col_ptr.%(j) in
    let xj = x.{j} /. Vec.get l.vals lo in
    x.{j} <- xj;
    if xj <> 0.0 then
      for k = lo + 1 to l.col_ptr.%(j + 1) - 1 do
        let i = Idx.unsafe_get l.rows k in
        Vec.unsafe_set x i
          (Vec.unsafe_get x i -. (Vec.unsafe_get l.vals k *. xj))
      done
  done

let solve_transpose_in_place l (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg
      "Lower.solve_transpose_in_place: vector length does not match factor";
  for j = l.n - 1 downto 0 do
    let lo = l.col_ptr.%(j) in
    let acc = ref x.{j} in
    for k = lo + 1 to l.col_ptr.%(j + 1) - 1 do
      acc :=
        !acc
        -. (Vec.unsafe_get l.vals k
            *. Vec.unsafe_get x (Idx.unsafe_get l.rows k))
    done;
    x.{j} <- !acc /. Vec.get l.vals lo
  done

let solve_in_place_sched l ~pool (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg
      "Lower.solve_in_place_sched: vector length does not match factor";
  let s = schedule l in
  let order = s.order
  and row_ptr = s.row_ptr
  and row_cols = s.row_cols
  and row_vals = s.row_vals in
  for lvl = 0 to s.n_levels - 1 do
    Par.parallel_for pool ~min_work:level_min_cols ~lo:s.level_ptr.(lvl)
      ~hi:s.level_ptr.(lvl + 1) (fun clo chi ->
        for idx = clo to chi - 1 do
          let i = order.(idx) in
          let hi_k = row_ptr.%(i + 1) in
          let acc = ref x.{i} in
          for k = row_ptr.%(i) to hi_k - 2 do
            acc :=
              !acc
              -. (Vec.unsafe_get row_vals k
                  *. Vec.unsafe_get x (Idx.unsafe_get row_cols k))
          done;
          x.{i} <- !acc /. Vec.get row_vals (hi_k - 1)
        done)
  done

let solve_transpose_in_place_sched l ~pool (x : Vec.t) =
  if Vec.length x <> l.n then
    invalid_arg
      "Lower.solve_transpose_in_place_sched: vector length does not match \
       factor";
  let s = schedule l in
  let order = s.order
  and col_ptr = l.col_ptr
  and rows = l.rows
  and vals = l.vals in
  (* The backward solve is already a gather over columns (one writer per
     x.(j)); running the levels in descending order guarantees every
     x.(rows.(k)) read below was finalized by a deeper level. *)
  for lvl = s.n_levels - 1 downto 0 do
    Par.parallel_for pool ~min_work:level_min_cols ~lo:s.level_ptr.(lvl)
      ~hi:s.level_ptr.(lvl + 1) (fun clo chi ->
        for idx = clo to chi - 1 do
          let j = order.(idx) in
          let lo = col_ptr.%(j) in
          let acc = ref x.{j} in
          for k = lo + 1 to col_ptr.%(j + 1) - 1 do
            acc :=
              !acc
              -. (Vec.unsafe_get vals k
                  *. Vec.unsafe_get x (Idx.unsafe_get rows k))
          done;
          x.{j} <- !acc /. Vec.get vals lo
        done)
  done

let apply_preconditioner l ~perm ~scratch r z =
  let n = l.n in
  if Array.length perm <> n then
    invalid_arg "Lower.apply_preconditioner: perm length does not match factor";
  if Vec.length scratch < n then
    invalid_arg "Lower.apply_preconditioner: scratch shorter than factor";
  if Vec.length r <> n || Vec.length z <> n then
    invalid_arg
      "Lower.apply_preconditioner: vector lengths do not match factor";
  let pool = Par.default () in
  if n >= par_solve_min && Par.runs_parallel pool then begin
    (* scratch <- P r *)
    Par.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
        for k = lo to hi - 1 do
          Vec.set scratch k (Vec.get r perm.(k))
        done);
    solve_in_place_sched l ~pool scratch;
    solve_transpose_in_place_sched l ~pool scratch;
    (* z <- P^T scratch; perm is a bijection so the writes are disjoint *)
    Par.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
        for k = lo to hi - 1 do
          Vec.set z perm.(k) (Vec.get scratch k)
        done)
  end
  else begin
    (* scratch <- P r *)
    for k = 0 to n - 1 do
      Vec.set scratch k (Vec.get r perm.(k))
    done;
    solve_in_place l scratch;
    solve_transpose_in_place l scratch;
    (* z <- P^T scratch *)
    for k = 0 to n - 1 do
      Vec.set z perm.(k) (Vec.get scratch k)
    done
  end

(* Per-slot cached column buffer, grown geometrically and kept on the
   factor: the ECO loop refactors the same closure sizes over and over,
   so after the first call the scratch is hot. *)
let refactor_buf l ~slot ~len =
  if slot >= Array.length l.refactor_bufs then begin
    let bufs = Array.make (slot + 1) (Vec.create 1) in
    Array.blit l.refactor_bufs 0 bufs 0 (Array.length l.refactor_bufs);
    for i = Array.length l.refactor_bufs to slot do
      bufs.(i) <- Vec.create 1
    done;
    l.refactor_bufs <- bufs
  end;
  if Vec.length l.refactor_bufs.(slot) < len then
    l.refactor_bufs.(slot) <- Vec.create (max (2 * len) 16);
  l.refactor_bufs.(slot)

let check_refactor_col l j =
  if j < 0 || j >= l.n then
    invalid_arg "Lower.refactor_columns: column out of range"

(* Commit one recomputed column: overwrite the column storage, keep the
   cached row form and diagonal coherent. All writes are owned by column
   [j] alone (each storage slot k has a unique pos_in_row), so commits of
   distinct columns never race even when their rows overlap. *)
let commit_column l ~sched ~diag j buf =
  let lo = l.col_ptr.%(j) and hi = l.col_ptr.%(j + 1) in
  if not (Vec.get buf 0 > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Lower.refactor_columns: nonpositive diagonal %g in column %d"
         (Vec.get buf 0) j);
  for k = lo to hi - 1 do
    let v = Vec.get buf (k - lo) in
    Vec.set l.vals k v;
    match sched with
    | Some s -> Vec.set s.row_vals s.pos_in_row.%(k) v
    | None -> ()
  done;
  match diag with Some d -> Vec.set d j (Vec.get buf 0) | None -> ()

let refactor_columns l ~cols ~emit =
  let max_len = ref 0 in
  Array.iter
    (fun j ->
      check_refactor_col l j;
      let len = l.col_ptr.%(j + 1) - l.col_ptr.%(j) in
      if len > !max_len then max_len := len)
    cols;
  let buf = refactor_buf l ~slot:0 ~len:!max_len in
  let diag = l.diag_cache in
  let sched = l.sched_cache in
  Array.iter
    (fun j ->
      emit j buf;
      commit_column l ~sched ~diag j buf)
    cols

let refactor_columns_grouped l ~pool ~group_ptr ~group_cols ~tail ~emit =
  let n_groups = Array.length group_ptr - 1 in
  let max_len = ref 0 in
  let touch j =
    check_refactor_col l j;
    let len = l.col_ptr.%(j + 1) - l.col_ptr.%(j) in
    if len > !max_len then max_len := len
  in
  Array.iter touch group_cols;
  Array.iter touch tail;
  let max_len = !max_len in
  let diag = l.diag_cache in
  let sched = l.sched_cache in
  (* pre-size every slot's buffer before fanning out: [refactor_buf]
     mutates the shared cache, which must not happen inside workers *)
  for slot = 0 to Par.domains pool - 1 do
    ignore (refactor_buf l ~slot ~len:max_len)
  done;
  (* group weight = total stored entries to recompute; the emit cost per
     column is dominated by its pattern length *)
  let weight g =
    let acc = ref 0.0 in
    for q = group_ptr.(g) to group_ptr.(g + 1) - 1 do
      let j = group_cols.(q) in
      acc := !acc +. float_of_int (l.col_ptr.%(j + 1) - l.col_ptr.%(j))
    done;
    !acc
  in
  Par.parallel_for_weighted pool ~weight ~lo:0 ~hi:n_groups
    (fun slot glo ghi ->
      let buf = l.refactor_bufs.(slot) in
      for g = glo to ghi - 1 do
        for q = group_ptr.(g) to group_ptr.(g + 1) - 1 do
          let j = group_cols.(q) in
          emit slot j buf;
          commit_column l ~sched ~diag j buf
        done
      done);
  let buf = l.refactor_bufs.(0) in
  Array.iter
    (fun j ->
      emit 0 j buf;
      commit_column l ~sched ~diag j buf)
    tail

let multiply l =
  let csc = to_csc l in
  Sparse.Csc.mul csc (Sparse.Csc.transpose csc)
