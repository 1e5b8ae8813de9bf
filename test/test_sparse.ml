module Csc = Sparse.Csc
module Triplet = Sparse.Triplet
module Perm = Sparse.Perm
module Vec = Sparse.Vec

let v = Test_util.vec
let arr = Test_util.arr

(* random dense matrix and its sparse twin *)
let random_pair ~seed ~n_rows ~n_cols ~density =
  let rng = Rng.create seed in
  let dense = Array.make_matrix n_rows n_cols 0.0 in
  for i = 0 to n_rows - 1 do
    for j = 0 to n_cols - 1 do
      if Rng.float rng < density then
        dense.(i).(j) <- Rng.float rng -. 0.5
    done
  done;
  (dense, Csc.of_dense dense)

(* ---- Vec ---- *)

let test_vec_dot () =
  Test_util.check_float "dot" 32.0
    (Vec.dot (v [| 1.0; 2.0; 3.0 |]) (v [| 4.0; 5.0; 6.0 |]))

let test_vec_norms () =
  Test_util.check_float "norm2" 5.0 (Vec.norm2 (v [| 3.0; 4.0 |]));
  Test_util.check_float "norm_inf" 4.0 (Vec.norm_inf (v [| 3.0; -4.0 |]))

let test_vec_axpy () =
  let y = v [| 1.0; 1.0 |] in
  Vec.axpy ~alpha:2.0 ~x:(v [| 1.0; 3.0 |]) ~y;
  Test_util.check_vec ~eps:1e-12 "axpy" [| 3.0; 7.0 |] y

let test_vec_xpby () =
  let y = v [| 1.0; 2.0 |] in
  Vec.xpby ~x:(v [| 10.0; 20.0 |]) ~beta:0.5 ~y;
  Test_util.check_vec ~eps:1e-12 "xpby" [| 10.5; 21.0 |] y

let test_vec_misc () =
  Test_util.check_float "mean" 2.0 (Vec.mean (v [| 1.0; 2.0; 3.0 |]));
  Test_util.check_float "max_abs_diff" 3.0
    (Vec.max_abs_diff (v [| 1.0; 5.0 |]) (v [| 2.0; 2.0 |]));
  let x = v [| 1.0; -2.0 |] in
  Vec.scale x (-2.0);
  Test_util.check_vec ~eps:1e-12 "scale" [| -2.0; 4.0 |] x

(* Caller errors are Invalid_argument, never an assert that -noassert
   would delete. *)
let length_mismatch fn =
  Invalid_argument (Printf.sprintf "Vec.%s: lengths 2 and 3 differ" fn)

let x2 () = v [| 1.0; 2.0 |]
let y3 () = v [| 1.0; 2.0; 3.0 |]

let test_vec_dot_lengths () =
  Alcotest.check_raises "dot" (length_mismatch "dot") (fun () ->
      ignore (Vec.dot (x2 ()) (y3 ())))

let test_vec_axpy_lengths () =
  Alcotest.check_raises "axpy" (length_mismatch "axpy") (fun () ->
      Vec.axpy ~alpha:1.0 ~x:(x2 ()) ~y:(y3 ()))

let test_vec_add_lengths () =
  Alcotest.check_raises "add" (length_mismatch "add") (fun () ->
      ignore (Vec.add (x2 ()) (y3 ())))

let test_vec_sub_lengths () =
  Alcotest.check_raises "sub" (length_mismatch "sub") (fun () ->
      ignore (Vec.sub (x2 ()) (y3 ())))

let test_vec_xpby_lengths () =
  Alcotest.check_raises "xpby" (length_mismatch "xpby") (fun () ->
      Vec.xpby ~x:(x2 ()) ~beta:1.0 ~y:(y3 ()))

let test_vec_add_sub_in_place () =
  (* entry by entry, exactly [x.{i} +. y.{i}] and [x.{i} -. y.{i}], and
     without a boxed float per entry: two 10k-entry results cost their
     Bigarray headers, not words per entry *)
  let n = 10_000 in
  let x = Vec.init n (fun i -> sin (float_of_int i)) in
  let y = Vec.init n (fun i -> 1e-3 *. cos (float_of_int (3 * i))) in
  ignore (Vec.add x y);
  ignore (Vec.sub x y);
  let before = Gc.minor_words () in
  let s = Vec.add x y in
  let d = Vec.sub x y in
  let words = Gc.minor_words () -. before in
  let bits = Int64.bits_of_float in
  let exact op z =
    let ok = ref true in
    for i = 0 to n - 1 do
      if bits (Vec.get z i) <> bits (op (Vec.get x i) (Vec.get y i)) then
        ok := false
    done;
    !ok
  in
  Alcotest.(check bool) "add bits" true (exact ( +. ) s);
  Alcotest.(check bool) "sub bits" true (exact ( -. ) d);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for add and sub of %d entries" words n)
    true (words < 64.0)

let test_vec_max_abs_diff_lengths () =
  Alcotest.check_raises "max_abs_diff" (length_mismatch "max_abs_diff")
    (fun () -> ignore (Vec.max_abs_diff (x2 ()) (y3 ())))

let test_vec_mean_empty () =
  Alcotest.check_raises "mean" (Invalid_argument "Vec.mean: empty vector")
    (fun () -> ignore (Vec.mean (Vec.create 0)))

(* ---- Perm ---- *)

let test_perm_inverse () =
  let p = [| 2; 0; 3; 1 |] in
  let inv = Perm.inverse p in
  for k = 0 to 3 do
    Alcotest.(check int) "inv(p(k))=k" k inv.(p.(k))
  done

let test_perm_validity () =
  Alcotest.(check bool) "valid" true (Perm.is_valid [| 1; 0; 2 |]);
  Alcotest.(check bool) "repeat invalid" false (Perm.is_valid [| 1; 1; 2 |]);
  Alcotest.(check bool) "oob invalid" false (Perm.is_valid [| 0; 3; 1 |])

let test_perm_apply_roundtrip () =
  let rng = Rng.create 31 in
  let p = Perm.random rng 20 in
  let x = Vec.init 20 (fun i -> float_of_int i) in
  let y = Perm.apply_vec p x in
  let x' = Perm.apply_inv_vec p y in
  Alcotest.(check (array (float 0.0))) "roundtrip" (arr x) (arr x')

let test_perm_of_order () =
  let p = Perm.of_order [| 3.0; 1.0; 2.0; 1.0 |] in
  (* stable: the two 1.0 keys keep index order *)
  Alcotest.(check (array int)) "sorted stable" [| 1; 3; 2; 0 |] p

(* ---- Triplet / Csc construction ---- *)

let test_triplet_duplicates_sum () =
  let t = Triplet.create ~n_rows:3 ~n_cols:3 () in
  Triplet.add t 0 0 1.0;
  Triplet.add t 0 0 2.0;
  Triplet.add t 2 1 5.0;
  let a = Csc.of_triplet t in
  Test_util.check_float "dup summed" 3.0 (Csc.get a 0 0);
  Test_util.check_float "other" 5.0 (Csc.get a 2 1);
  Alcotest.(check int) "nnz" 2 (Csc.nnz a)

let test_stamp_conductance () =
  let t = Triplet.create ~n_rows:3 ~n_cols:3 () in
  Triplet.stamp_conductance t 0 2 4.0;
  Triplet.stamp_conductance t 1 (-1) 3.0;
  let a = Csc.of_triplet t in
  Test_util.check_float "diag 0" 4.0 (Csc.get a 0 0);
  Test_util.check_float "diag 2" 4.0 (Csc.get a 2 2);
  Test_util.check_float "off" (-4.0) (Csc.get a 0 2);
  Test_util.check_float "grounded diag" 3.0 (Csc.get a 1 1)

let test_dense_roundtrip () =
  let dense, a = random_pair ~seed:37 ~n_rows:13 ~n_cols:9 ~density:0.3 in
  let back = Csc.to_dense a in
  Test_util.check_float "roundtrip" 0.0
    (Test_util.max_abs_2d (Test_util.dense_diff dense back))

let test_of_raw_validation () =
  let bad () =
    ignore
      (Csc.of_raw ~n_rows:2 ~n_cols:2
         ~col_ptr:(Sparse.Idx.of_array [| 0; 2; 2 |])
         ~row_idx:(Sparse.Idx.of_array [| 1; 0 |])
         ~values:(v [| 1.0; 2.0 |]))
  in
  Alcotest.check_raises "unsorted rows rejected"
    (Invalid_argument "Csc: rows must be strictly ascending within a column")
    bad

let test_identity () =
  let i5 = Csc.identity 5 in
  let x = Vec.init 5 (fun i -> float_of_int i) in
  Alcotest.(check (array (float 0.0))) "I x = x" (arr x) (arr (Csc.spmv i5 x))

(* ---- Csc kernels vs dense reference ---- *)

let test_spmv () =
  let dense, a = random_pair ~seed:41 ~n_rows:15 ~n_cols:10 ~density:0.4 in
  let rng = Rng.create 43 in
  let x = Array.init 10 (fun _ -> Rng.float rng) in
  let expected = Test_util.dense_matvec dense x in
  Test_util.check_vec ~eps:1e-12 "spmv" expected (Csc.spmv a (v x))

let test_spmv_into_lengths () =
  let _, a = random_pair ~seed:41 ~n_rows:15 ~n_cols:10 ~density:0.4 in
  let bad =
    Invalid_argument "Csc.spmv_into: vector lengths must match the matrix"
  in
  Alcotest.check_raises "short y" bad (fun () ->
      Csc.spmv_into a (Vec.create 10) (Vec.create 14));
  Alcotest.check_raises "long x" bad (fun () ->
      Csc.spmv_into a (Vec.create 11) (Vec.create 15))

let test_spmv_t () =
  let dense, a = random_pair ~seed:47 ~n_rows:12 ~n_cols:8 ~density:0.4 in
  let rng = Rng.create 49 in
  let x = Array.init 12 (fun _ -> Rng.float rng) in
  let expected = Test_util.dense_matvec (Test_util.dense_transpose dense) x in
  Test_util.check_vec ~eps:1e-12 "spmv_t" expected (Csc.spmv_t a (v x))

let test_spmv_t_into () =
  (* the caller's buffer gets spmv_t's bits, whatever it held before *)
  let _, a = random_pair ~seed:47 ~n_rows:12 ~n_cols:8 ~density:0.4 in
  let rng = Rng.create 51 in
  let x = Vec.init 12 (fun _ -> Rng.float rng -. 0.5) in
  let y = Vec.make 8 Float.nan in
  Csc.spmv_t_into a x y;
  Alcotest.(check (array (float 0.0))) "same bits as spmv_t"
    (arr (Csc.spmv_t a x)) (arr y);
  let bad =
    Invalid_argument "Csc.spmv_t_into: vector lengths must match the matrix"
  in
  Alcotest.check_raises "short y" bad (fun () ->
      Csc.spmv_t_into a x (Vec.create 7));
  Alcotest.check_raises "long x" bad (fun () ->
      Csc.spmv_t_into a (Vec.create 13) (Vec.create 8))

let test_transpose () =
  let dense, a = random_pair ~seed:53 ~n_rows:11 ~n_cols:14 ~density:0.3 in
  let at = Csc.transpose a in
  let expected = Test_util.dense_transpose dense in
  Test_util.check_float "transpose" 0.0
    (Test_util.max_abs_2d (Test_util.dense_diff expected (Csc.to_dense at)))

let test_transpose_involution () =
  let _, a = random_pair ~seed:59 ~n_rows:9 ~n_cols:16 ~density:0.25 in
  let att = Csc.transpose (Csc.transpose a) in
  Test_util.check_float "A^TT = A" 0.0 (Csc.frobenius_diff a att)

let test_add_scale () =
  let da, a = random_pair ~seed:61 ~n_rows:10 ~n_cols:10 ~density:0.3 in
  let db, b = random_pair ~seed:67 ~n_rows:10 ~n_cols:10 ~density:0.3 in
  let sum = Csc.add a (Csc.scale b 2.0) in
  let expected =
    Array.init 10 (fun i ->
        Array.init 10 (fun j -> da.(i).(j) +. (2.0 *. db.(i).(j))))
  in
  Test_util.check_float "add+scale" 0.0
    (Test_util.max_abs_2d (Test_util.dense_diff expected (Csc.to_dense sum)))

let test_mul () =
  let da, a = random_pair ~seed:71 ~n_rows:9 ~n_cols:7 ~density:0.4 in
  let db, b = random_pair ~seed:73 ~n_rows:7 ~n_cols:11 ~density:0.4 in
  let prod = Csc.mul a b in
  let expected = Test_util.dense_matmul da db in
  Alcotest.(check bool) "mul matches dense" true
    (Test_util.max_abs_2d (Test_util.dense_diff expected (Csc.to_dense prod))
     < 1e-12)

let test_permute_sym () =
  let g, d = Test_util.random_sddm ~seed:79 ~n:20 ~m:40 in
  let a = Sddm.Graph.to_sddm g d in
  let rng = Rng.create 83 in
  let p = Perm.random rng 20 in
  let pa = Csc.permute_sym a p in
  let dense = Csc.to_dense a in
  for i = 0 to 19 do
    for j = 0 to 19 do
      Test_util.check_float "P A P^T entry" dense.(p.(i)).(p.(j))
        (Csc.get pa i j)
    done
  done

let test_lower_upper () =
  let _, a = random_pair ~seed:89 ~n_rows:8 ~n_cols:8 ~density:0.5 in
  let l = Csc.lower a and u = Csc.upper a in
  Csc.fold_nonzeros l ~init:() ~f:(fun () i j _ ->
      Alcotest.(check bool) "lower" true (i >= j));
  Csc.fold_nonzeros u ~init:() ~f:(fun () i j _ ->
      Alcotest.(check bool) "upper" true (i <= j));
  (* lower + upper - diag = a *)
  let d = arr (Csc.diag a) in
  let total = Csc.add l u in
  let fixed =
    Csc.add total
      (Csc.of_dense
         (Array.init 8 (fun i ->
              Array.init 8 (fun j -> if i = j then -.d.(i) else 0.0))))
  in
  Test_util.check_float "split" 0.0 (Csc.frobenius_diff a fixed)

let test_diag_one_norm () =
  let a = Csc.of_dense [| [| 2.0; -3.0 |]; [| 1.0; 4.0 |] |] in
  Test_util.check_vec ~eps:0.0 "diag" [| 2.0; 4.0 |] (Csc.diag a);
  Test_util.check_float "one_norm" 7.0 (Csc.one_norm a)

let test_symmetrize_check () =
  let g, d = Test_util.random_sddm ~seed:97 ~n:15 ~m:30 in
  let a = Sddm.Graph.to_sddm g d in
  Alcotest.(check bool) "sddm symmetric" true (Csc.symmetrize_check a);
  let _, ns = random_pair ~seed:101 ~n_rows:6 ~n_cols:6 ~density:0.5 in
  Alcotest.(check bool) "random not symmetric" false (Csc.symmetrize_check ns)

(* ---- MatrixMarket ---- *)

let test_mtx_roundtrip_general () =
  let _, a = random_pair ~seed:103 ~n_rows:12 ~n_cols:7 ~density:0.3 in
  let path = Filename.temp_file "powerrchol" ".mtx" in
  Sparse.Matrix_market.write path a;
  let b = Sparse.Matrix_market.read path in
  Sys.remove path;
  Test_util.check_float "roundtrip" 0.0 (Csc.frobenius_diff a b)

let test_mtx_roundtrip_symmetric () =
  let g, d = Test_util.random_sddm ~seed:107 ~n:18 ~m:40 in
  let a = Sddm.Graph.to_sddm g d in
  let path = Filename.temp_file "powerrchol" ".mtx" in
  Sparse.Matrix_market.write ~symmetric:true path a;
  let b = Sparse.Matrix_market.read path in
  Sys.remove path;
  Test_util.check_float "symmetric roundtrip" 0.0 (Csc.frobenius_diff a b)

let test_mtx_vector_roundtrip () =
  let rng = Rng.create 109 in
  let x = Vec.init 37 (fun _ -> Rng.float rng -. 0.5) in
  let path = Filename.temp_file "powerrchol" ".mtx" in
  Sparse.Matrix_market.write_vector path x;
  let x' = Sparse.Matrix_market.read_vector path in
  Sys.remove path;
  Alcotest.(check (array (float 0.0))) "vector roundtrip" (arr x) (arr x')

let test_mtx_vector_rejects_matrix () =
  let path = Filename.temp_file "powerrchol" ".mtx" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  let rejected =
    match Sparse.Matrix_market.read_vector path with
    | _ -> false
    | exception Sparse.Matrix_market.Parse_error _ -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "multi-column rejected" true rejected

let test_mtx_rejects_nonsquare_symmetric () =
  (* A symmetric declaration on a non-square size line must fail the
     parse contract (positioned Parse_error) in both readers — the
     streaming count pass would otherwise mirror a row index into a
     column-sized array and die with a raw bounds error. *)
  let content =
    "%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n1 1 1.0\n3 2 \
     -0.5\n"
  in
  let path = Filename.temp_file "powerrchol" ".mtx" in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "streaming reader rejects" true
        (match Sparse.Matrix_market.read path with
         | _ -> false
         | exception Sparse.Matrix_market.Parse_error msg ->
           (* the error must carry the size line's position *)
           String.length msg >= 6 && String.sub msg 0 6 = "line 2");
      Alcotest.(check bool) "triplet reader rejects" true
        (match Sparse.Matrix_market.read_triplet path with
         | _ -> false
         | exception Sparse.Matrix_market.Parse_error _ -> true))

let test_mtx_rejects_garbage () =
  Alcotest.(check bool) "parse error raised" true
    (match Sparse.Matrix_market.read "/dev/null" with
     | _ -> false
     | exception Sparse.Matrix_market.Parse_error _ -> true)

let read_string content =
  let path = Filename.temp_file "powerrchol" ".mtx" in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Sparse.Matrix_market.read path)

let test_mtx_header_whitespace () =
  (* Real-world exports separate header tokens with tabs and carry CRLF
     line endings; the parser must tolerate both. *)
  let a =
    read_string
      "%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\r\n2 2 2\r\n1 1 3.0\r\n2 2 4.0\r\n"
  in
  Alcotest.(check (pair int int)) "dims" (2, 2) (Csc.dims a);
  Test_util.check_float "a(0,0)" 3.0 (Csc.get a 0 0);
  Test_util.check_float "a(1,1)" 4.0 (Csc.get a 1 1)

let test_mtx_header_mixed_case () =
  let a =
    read_string
      "%%MatrixMarket  MATRIX   Coordinate  Real  Symmetric\n2 2 2\n1 1 1.0\n2 1 -0.5\n"
  in
  Alcotest.(check (pair int int)) "dims" (2, 2) (Csc.dims a);
  Test_util.check_float "mirrored" (-0.5) (Csc.get a 0 1)

let test_mtx_nonfinite_values_load () =
  (* nan/inf entries must load (diagnostics report them); Scanf's %f used
     to reject the tokens outright. *)
  let a =
    read_string
      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 nan\n2 2 inf\n2 1 1.5\n"
  in
  Alcotest.(check bool) "nan stored" true (Float.is_nan (Csc.get a 0 0));
  Test_util.check_float "inf stored" infinity (Csc.get a 1 1);
  Test_util.check_float "finite neighbor" 1.5 (Csc.get a 1 0)

(* The streaming two-pass reader must agree with the materialized-triplet
   reference not just numerically but bit-for-bit: same column pointers,
   same row order, same value bits (nan payloads included). *)
let check_csc_identical name (a : Csc.t) (b : Csc.t) =
  Alcotest.(check (pair int int)) (name ^ ": dims") (Csc.dims a) (Csc.dims b);
  Alcotest.(check (array int))
    (name ^ ": col_ptr")
    (Sparse.Idx.to_array a.Csc.col_ptr)
    (Sparse.Idx.to_array b.Csc.col_ptr);
  Alcotest.(check (array int))
    (name ^ ": row_idx")
    (Sparse.Idx.to_array a.Csc.row_idx)
    (Sparse.Idx.to_array b.Csc.row_idx);
  let bits x = Array.map Int64.bits_of_float (arr x) in
  Alcotest.(check (array int64))
    (name ^ ": value bits")
    (bits a.Csc.values) (bits b.Csc.values)

let test_mtx_streaming_equals_triplet () =
  let with_file content f =
    let path = Filename.temp_file "powerrchol" ".mtx" in
    Out_channel.with_open_text path (fun oc -> output_string oc content);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let with_written ?symmetric a f =
    let path = Filename.temp_file "powerrchol" ".mtx" in
    Sparse.Matrix_market.write ?symmetric path a;
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let check name path =
    check_csc_identical name
      (Sparse.Matrix_market.read_triplet path)
      (Sparse.Matrix_market.read path)
  in
  (* the same fixtures the roundtrip/header tests above exercise *)
  let _, general = random_pair ~seed:103 ~n_rows:12 ~n_cols:7 ~density:0.3 in
  with_written general (check "general");
  let g, d = Test_util.random_sddm ~seed:107 ~n:18 ~m:40 in
  let sddm = Sddm.Graph.to_sddm g d in
  with_written ~symmetric:true sddm (check "symmetric");
  with_file
    "%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\r\n2 2 2\r\n1 1 3.0\r\n2 2 4.0\r\n"
    (check "tab/CRLF");
  with_file
    "%%MatrixMarket  MATRIX   Coordinate  Real  Symmetric\n2 2 2\n1 1 1.0\n2 1 -0.5\n"
    (check "mixed-case");
  with_file
    "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 nan\n2 2 inf\n2 1 1.5\n"
    (check "nan/inf");
  (* duplicate coordinates: both paths must sum them in the same order *)
  with_file
    "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 0.1\n3 2 5.0\n1 1 0.2\n1 1 0.3\n"
    (check "duplicates")

(* ---- index width ---- *)

let test_idx_width () =
  if Sparse.Idx.bits = 64 then begin
    (* forced-int64 build: indices beyond 2^31 must round-trip exactly,
       which is what lets nnz >= 2^31 matrices address their buffers *)
    let big = [| 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0x2_0000_0001 |] in
    let idx = Sparse.Idx.of_array big in
    Alcotest.(check (array int)) "of_array/to_array beyond 2^31" big
      (Sparse.Idx.to_array idx);
    Sparse.Idx.set idx 0 0x1_2345_6789;
    Alcotest.(check int) "set/get beyond 2^31" 0x1_2345_6789
      (Sparse.Idx.get idx 0);
    Sparse.Idx.check_index_capacity ~what:"test" 0x1_0000_0000
  end
  else begin
    Alcotest.(check int) "default build is int32" 32 Sparse.Idx.bits;
    (* narrow build: capacity guard must reject counts past 2^31 - 1 with
       an actionable error instead of silently truncating *)
    let rejected =
      match Sparse.Idx.check_index_capacity ~what:"test" 0x8000_0000 with
      | () -> false
      | exception Invalid_argument _ -> true
    in
    Alcotest.(check bool) "capacity guard rejects 2^31" true rejected;
    let max = Sparse.Idx.max_index in
    let idx = Sparse.Idx.of_array [| 0; max |] in
    Alcotest.(check int) "max_index round-trips" max (Sparse.Idx.get idx 1)
  end

(* The kernels read indices as [to_int (unsafe_get_elt a k)]; that read
   must agree with [get] across the element's range. *)
let test_idx_primitive_read () =
  let open Sparse.Idx in
  let above_2_31 = if bits = 64 then [ 0x8000_0000; 0x2_0000_0001 ] else [] in
  let values = [ 0; 1; max_index ] @ above_2_31 in
  let a = of_array (Array.of_list values) in
  List.iteri
    (fun k v ->
      Alcotest.(check int) (Printf.sprintf "element %d" k) v (get a k);
      Alcotest.(check int)
        (Printf.sprintf "primitive read of %d" v)
        (get a k)
        (to_int (unsafe_get_elt a k)))
    values

(* ---- properties ---- *)

let sddm_gen =
  QCheck.Gen.(
    map
      (fun (seed, n, m) -> Test_util.random_sddm ~seed ~n:(n + 2) ~m:(m + 1))
      (triple (int_bound 10000) (int_bound 30) (int_bound 80)))

let arb_sddm =
  QCheck.make ~print:(fun (g, _) ->
      Printf.sprintf "graph n=%d m=%d" (Sddm.Graph.n_vertices g)
        (Sddm.Graph.n_edges g))
    sddm_gen

let prop_spmv_linear =
  QCheck.Test.make ~name:"spmv is linear" ~count:100 arb_sddm
    (fun (g, d) ->
      let a = Sddm.Graph.to_sddm g d in
      let n = Sddm.Graph.n_vertices g in
      let rng = Rng.create 1 in
      let x = Vec.init n (fun _ -> Rng.float rng) in
      let y = Vec.init n (fun _ -> Rng.float rng) in
      let lhs = Csc.spmv a (Vec.add x y) in
      let rhs = Vec.add (Csc.spmv a x) (Csc.spmv a y) in
      Vec.max_abs_diff lhs rhs < 1e-10)

let prop_permute_preserves_spectrum_proxy =
  QCheck.Test.make ~name:"symmetric permutation preserves Frobenius norm"
    ~count:100 arb_sddm (fun (g, d) ->
      let a = Sddm.Graph.to_sddm g d in
      let n = Sddm.Graph.n_vertices g in
      let rng = Rng.create 2 in
      let p = Perm.random rng n in
      let pa = Csc.permute_sym a p in
      let frob m =
        Csc.fold_nonzeros m ~init:0.0 ~f:(fun acc _ _ v -> acc +. (v *. v))
      in
      Float.abs (frob a -. frob pa) < 1e-9 *. (1.0 +. frob a))

let prop_transpose_spmv =
  QCheck.Test.make ~name:"x^T (A y) = (A^T x)^T y" ~count:100 arb_sddm
    (fun (g, d) ->
      let a = Sddm.Graph.to_sddm g d in
      let n = Sddm.Graph.n_vertices g in
      let rng = Rng.create 3 in
      let x = Vec.init n (fun _ -> Rng.float rng) in
      let y = Vec.init n (fun _ -> Rng.float rng) in
      let lhs = Vec.dot x (Csc.spmv a y) in
      let rhs = Vec.dot (Csc.spmv_t a x) y in
      Float.abs (lhs -. rhs) < 1e-9 *. (1.0 +. Float.abs lhs))

(* Caller errors in Csc are Invalid_argument too: one case per guard. *)
let csc_typed_errors =
  let sq = Csc.identity 2 and rect = Csc.of_dense [| [| 1.0; 2.0; 3.0 |] |] in
  List.map
    (fun (name, msg, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.check_raises name (Invalid_argument msg) f))
    [
      ( "of_dense ragged rows",
        "Csc.of_dense: rows must have equal lengths",
        fun () -> ignore (Csc.of_dense [| [| 1.0; 2.0 |]; [| 3.0 |] |]) );
      ( "get out of range",
        "Csc.get: index out of bounds",
        fun () -> ignore (Csc.get sq 2 0) );
      ( "spmv_t length",
        "Csc.spmv_t: vector length must match the matrix",
        fun () -> ignore (Csc.spmv_t sq (Vec.create 3)) );
      ( "permute_sym non-square",
        "Csc.permute_sym: matrix must be square",
        fun () -> ignore (Csc.permute_sym rect [| 0; 1; 2 |]) );
      ( "permute_sym perm length",
        "Csc.permute_sym: permutation length must match the matrix",
        fun () -> ignore (Csc.permute_sym sq [| 0 |]) );
      ( "diag non-square",
        "Csc.diag: matrix must be square",
        fun () -> ignore (Csc.diag rect) );
      ( "add dimensions",
        "Csc.add: dimensions differ",
        fun () -> ignore (Csc.add sq rect) );
      ( "mul inner dimensions",
        "Csc.mul: inner dimensions differ",
        fun () -> ignore (Csc.mul rect sq) );
      ( "iter_col out of range",
        "Csc.iter_col: column out of bounds",
        fun () -> Csc.iter_col sq 2 (fun _ _ -> ()) );
      ( "frobenius_diff dimensions",
        "Csc.frobenius_diff: dimensions differ",
        fun () -> ignore (Csc.frobenius_diff sq rect) );
    ]

let () =
  Alcotest.run "sparse"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "xpby" `Quick test_vec_xpby;
          Alcotest.test_case "misc" `Quick test_vec_misc;
          Alcotest.test_case "add and sub exact, unboxed" `Quick
            test_vec_add_sub_in_place;
          Alcotest.test_case "dot rejects a length mismatch" `Quick
            test_vec_dot_lengths;
          Alcotest.test_case "axpy rejects a length mismatch" `Quick
            test_vec_axpy_lengths;
          Alcotest.test_case "add rejects a length mismatch" `Quick
            test_vec_add_lengths;
          Alcotest.test_case "sub rejects a length mismatch" `Quick
            test_vec_sub_lengths;
          Alcotest.test_case "xpby rejects a length mismatch" `Quick
            test_vec_xpby_lengths;
          Alcotest.test_case "max_abs_diff rejects a length mismatch" `Quick
            test_vec_max_abs_diff_lengths;
          Alcotest.test_case "mean rejects an empty vector" `Quick
            test_vec_mean_empty;
        ] );
      ( "perm",
        [
          Alcotest.test_case "inverse" `Quick test_perm_inverse;
          Alcotest.test_case "validity" `Quick test_perm_validity;
          Alcotest.test_case "apply roundtrip" `Quick test_perm_apply_roundtrip;
          Alcotest.test_case "of_order stable" `Quick test_perm_of_order;
        ] );
      ( "construction",
        [
          Alcotest.test_case "duplicates sum" `Quick test_triplet_duplicates_sum;
          Alcotest.test_case "conductance stamps" `Quick test_stamp_conductance;
          Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
          Alcotest.test_case "of_raw validation" `Quick test_of_raw_validation;
          Alcotest.test_case "identity" `Quick test_identity;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "spmv" `Quick test_spmv;
          Alcotest.test_case "spmv_into length check" `Quick
            test_spmv_into_lengths;
          Alcotest.test_case "spmv_t" `Quick test_spmv_t;
          Alcotest.test_case "spmv_t_into = spmv_t, length check" `Quick
            test_spmv_t_into;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "add/scale" `Quick test_add_scale;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "permute_sym" `Quick test_permute_sym;
          Alcotest.test_case "lower/upper" `Quick test_lower_upper;
          Alcotest.test_case "diag/one_norm" `Quick test_diag_one_norm;
          Alcotest.test_case "symmetrize_check" `Quick test_symmetrize_check;
        ] );
      ("typed errors", csc_typed_errors);
      ( "matrix-market",
        [
          Alcotest.test_case "general roundtrip" `Quick test_mtx_roundtrip_general;
          Alcotest.test_case "symmetric roundtrip" `Quick test_mtx_roundtrip_symmetric;
          Alcotest.test_case "garbage rejected" `Quick test_mtx_rejects_garbage;
          Alcotest.test_case "non-square symmetric rejected" `Quick
            test_mtx_rejects_nonsquare_symmetric;
          Alcotest.test_case "tab/CRLF header tolerated" `Quick
            test_mtx_header_whitespace;
          Alcotest.test_case "mixed-case header tolerated" `Quick
            test_mtx_header_mixed_case;
          Alcotest.test_case "nan/inf values load" `Quick
            test_mtx_nonfinite_values_load;
          Alcotest.test_case "vector roundtrip" `Quick test_mtx_vector_roundtrip;
          Alcotest.test_case "vector rejects matrix" `Quick
            test_mtx_vector_rejects_matrix;
          Alcotest.test_case "streaming equals triplet bit-for-bit" `Quick
            test_mtx_streaming_equals_triplet;
        ] );
      ( "idx",
        [
          Alcotest.test_case "index width round-trip" `Quick test_idx_width;
          Alcotest.test_case "primitive read matches get" `Quick
            test_idx_primitive_read;
        ] );
      ( "property",
        Test_util.qcheck
          [
            prop_spmv_linear;
            prop_permute_preserves_spectrum_proxy;
            prop_transpose_spmv;
          ] );
    ]
