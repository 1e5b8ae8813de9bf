let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies agree" (Rng.int64 a) (Rng.int64 b);
  ignore (Rng.int64 a);
  let x = Rng.int64 a and y = Rng.int64 b in
  Alcotest.(check bool) "copies diverge after different use" true (x <> y)

let test_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = Array.init 32 (fun _ -> Rng.int64 a) in
  let ys = Array.init 32 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_open_positive () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float_open rng in
    Alcotest.(check bool) "in (0,1)" true (x > 0.0 && x < 1.0)
  done

let test_float_mean () =
  let rng = Rng.create 5 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_int_bounds () =
  let rng = Rng.create 9 in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let x = Rng.int rng bound in
        Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
      done)
    [ 1; 2; 7; 16; 1000 ]

let test_int_uniform () =
  let rng = Rng.create 11 in
  let counts = Array.make 10 0 in
  let n = 50000 in
  for _ = 1 to n do
    let x = Rng.int rng 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (Float.abs (freq -. 0.1) < 0.01))
    counts

let test_discrete_distribution () =
  let rng = Rng.create 13 in
  let weights = [| 1.0; 0.0; 3.0; 6.0 |] in
  let counts = Array.make 4 0 in
  let n = 40000 in
  for _ = 1 to n do
    let i = Rng.discrete rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never sampled" 0 counts.(1);
  let freq i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "p0 ~ 0.1" true (Float.abs (freq 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "p2 ~ 0.3" true (Float.abs (freq 2 -. 0.3) < 0.02);
  Alcotest.(check bool) "p3 ~ 0.6" true (Float.abs (freq 3 -. 0.6) < 0.02)

let test_discrete_prefix_matches_discrete () =
  let rng = Rng.create 17 in
  let weights = [| 2.0; 1.0; 5.0; 2.0; 0.5 |] in
  let pfs = Array.make 5 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      pfs.(i) <- !acc)
    weights;
  (* sampling from suffix after index 1: indices 2..4, weights 5,2,0.5 *)
  let counts = Array.make 5 0 in
  let n = 30000 in
  for _ = 1 to n do
    let i = Rng.discrete_prefix rng pfs ~lo:1 ~hi:4 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "lo never sampled" 0 counts.(1);
  Alcotest.(check int) "below lo never sampled" 0 counts.(0);
  let total = 7.5 in
  let freq i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "p2" true (Float.abs (freq 2 -. (5.0 /. total)) < 0.02);
  Alcotest.(check bool) "p3" true (Float.abs (freq 3 -. (2.0 /. total)) < 0.02);
  Alcotest.(check bool) "p4" true (Float.abs (freq 4 -. (0.5 /. total)) < 0.01)

let test_shuffle_permutes () =
  let rng = Rng.create 19 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_exponential_mean () =
  let rng = Rng.create 23 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng 2.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/lambda" true (Float.abs (mean -. 0.5) < 0.02)

let test_pareto_bounds () =
  let rng = Rng.create 29 in
  for _ = 1 to 1000 do
    let x = Rng.pareto rng ~alpha:2.5 ~x_min:1.5 in
    Alcotest.(check bool) "above x_min" true (x >= 1.5)
  done

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_discrete_positive_weight =
  QCheck.Test.make ~name:"discrete only returns positive-weight indices"
    ~count:300
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) (float_range 0.0 5.0)))
    (fun (seed, ws) ->
      QCheck.assume (List.exists (fun w -> w > 0.0) ws);
      let rng = Rng.create seed in
      let weights = Array.of_list ws in
      let i = Rng.discrete rng weights in
      weights.(i) > 0.0)

(* ---- known answers ----

   The streams as the generator drew them when its state was four
   [mutable int64] fields; a change of representation must keep every
   draw. [draws] draws in list order. *)

let draws n f = List.init n (fun _ -> f ())

let test_known_answers () =
  let i64s = Alcotest.(list int64) and ints = Alcotest.(list int) in
  let floats = Alcotest.(list (float 0.0)) in
  let from seed = Rng.create seed in
  Alcotest.check i64s "create 42"
    [ -3425465463722317665L; 5881210131331364753L; -297100157724070516L;
      -5513075133950446152L ]
    (let t = from 42 in draws 4 (fun () -> Rng.int64 t));
  Alcotest.check i64s "create 0"
    [ 5987356902031041503L; 7051070477665621255L ]
    (let t = from 0 in draws 2 (fun () -> Rng.int64 t));
  Alcotest.check i64s "create -7"
    [ 1096282230538149847L; -7893452483165635254L ]
    (let t = from (-7) in draws 2 (fun () -> Rng.int64 t));
  Alcotest.check i64s "create max_int"
    [ 5042704402088116674L; -4346585348570061276L ]
    (let t = from max_int in draws 2 (fun () -> Rng.int64 t));
  Alcotest.check i64s "keyed 42 7"
    [ 3409545882473857721L; -6673359065421028338L; -2806490686861063000L ]
    (let t = Rng.keyed ~seed:42 7 in draws 3 (fun () -> Rng.int64 t));
  Alcotest.check i64s "keyed 0 0"
    [ -8867416198183057606L; -4021719580451871461L ]
    (let t = Rng.keyed ~seed:0 0 in draws 2 (fun () -> Rng.int64 t));
  Alcotest.check i64s "keyed 123456789 -3"
    [ -846323275519228740L; -3845422182082197163L ]
    (let t = Rng.keyed ~seed:123456789 (-3) in draws 2 (fun () -> Rng.int64 t));
  Alcotest.check i64s "reseed_keyed to 42 7"
    [ 3409545882473857721L; -6673359065421028338L; -2806490686861063000L ]
    (let t = Rng.keyed ~seed:5 11 in
     Rng.reseed_keyed t ~seed:42 7;
     draws 3 (fun () -> Rng.int64 t));
  let t = from 42 in
  let child = Rng.split t in
  Alcotest.check i64s "split of create 42"
    [ 5745406364259058299L; -3749950290529424113L; -1760308716576054147L ]
    (draws 3 (fun () -> Rng.int64 child));
  Alcotest.check i64s "create 42 after split"
    [ 5881210131331364753L; -297100157724070516L ]
    (draws 2 (fun () -> Rng.int64 t));
  Alcotest.check ints "derive_key create 42"
    [ 3755319652496808487; 1470302532832841188; 4537410978996370275 ]
    (let t = from 42 in draws 3 (fun () -> Rng.derive_key t));
  let create_42_floats =
    [ 0x1.a0ec9a9e88ecdp-1; 0x1.467905d15dbccp-2; 0x1.f7c0f9f61849dp-1;
      0x1.66fb3ec019b06p-1 ]
  in
  Alcotest.check floats "float create 42" create_42_floats
    (let t = from 42 in draws 4 (fun () -> Rng.float t));
  Alcotest.check floats "float_open create 42" create_42_floats
    (let t = from 42 in draws 4 (fun () -> Rng.float_open t));
  Alcotest.check floats "float_open keyed 3 1"
    [ 0x1.281d740f4dd2bp-1; 0x1.f0c42403e4e2bp-1; 0x1.6f3403cb29b8cp-1 ]
    (let t = Rng.keyed ~seed:3 1 in draws 3 (fun () -> Rng.float_open t));
  Alcotest.check ints "int create 42"
    [ 5; 1; 539726; 1156172208872954539; 0 ]
    (let t = from 42 in
     List.map (Rng.int t) [ 10; 16; 1_000_003; max_int; 1 ]);
  Alcotest.check ints "discrete_prefix create 9" [ 3; 3; 3; 4; 4; 1 ]
    (let t = from 9 and pfs = [| 1.0; 3.0; 6.0; 10.0; 15.0 |] in
     List.map
       (fun (lo, hi) -> Rng.discrete_prefix t pfs ~lo ~hi)
       [ (0, 4); (1, 4); (2, 3); (0, 4); (3, 4); (0, 1) ])

let test_keyed_draw_allocation () =
  (* The factorization reseeds one generator per column and draws its
     shared random number: the pair allocates only [float_open]'s boxed
     result (2 words), where a state of [mutable int64] fields
     allocated 61. *)
  let t = Rng.create 42 in
  let w0 = Gc.minor_words () in
  for k = 0 to 9_999 do
    Rng.reseed_keyed t ~seed:42 k;
    ignore (Rng.float_open t)
  done;
  let per = (Gc.minor_words () -. w0) /. 10_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per reseed_keyed + float_open" per)
    true (per <= 8.0)

(* Caller errors are Invalid_argument, never an assert that -noassert
   would delete: one case per guard. *)
let typed_errors =
  let t () = Rng.create 1 in
  List.map
    (fun (name, msg, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.check_raises name (Invalid_argument msg) f))
    [
      ( "float_range empty",
        "Rng.float_range: empty range",
        fun () -> ignore (Rng.float_range (t ()) 1.0 1.0) );
      ( "int zero bound",
        "Rng.int: bound must be positive",
        fun () -> ignore (Rng.int (t ()) 0) );
      ( "discrete no weights",
        "Rng.discrete: no weights",
        fun () -> ignore (Rng.discrete (t ()) [||]) );
      ( "discrete negative weight",
        "Rng.discrete: negative or NaN weight",
        fun () -> ignore (Rng.discrete (t ()) [| 1.0; -1.0 |]) );
      ( "discrete zero mass",
        "Rng.discrete: no positive mass",
        fun () -> ignore (Rng.discrete (t ()) [| 0.0; 0.0 |]) );
      ( "discrete_prefix bounds",
        "Rng.discrete_prefix: bounds out of range",
        fun () -> ignore (Rng.discrete_prefix (t ()) [| 0.0; 1.0 |] ~lo:1 ~hi:2)
      );
      ( "discrete_prefix zero mass",
        "Rng.discrete_prefix: no positive mass",
        fun () ->
          ignore (Rng.discrete_prefix (t ()) [| 0.0; 1.0; 1.0 |] ~lo:1 ~hi:2)
      );
      ( "exponential zero rate",
        "Rng.exponential: rate must be positive",
        fun () -> ignore (Rng.exponential (t ()) 0.0) );
      ( "pareto zero alpha",
        "Rng.pareto: alpha and x_min must be positive",
        fun () -> ignore (Rng.pareto (t ()) ~alpha:0.0 ~x_min:1.0) );
    ]

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "float in [0,1)" `Quick test_float_range;
          Alcotest.test_case "float_open in (0,1)" `Quick test_float_open_positive;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniform;
          Alcotest.test_case "discrete distribution" `Quick test_discrete_distribution;
          Alcotest.test_case "discrete_prefix suffix sampling" `Quick
            test_discrete_prefix_matches_discrete;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "pareto bounds" `Quick test_pareto_bounds;
        ] );
      ( "known answers",
        [
          Alcotest.test_case "streams of the int64-field state" `Quick
            test_known_answers;
          Alcotest.test_case "keyed draw allocation bound" `Quick
            test_keyed_draw_allocation;
        ] );
      ("errors", typed_errors);
      ("property", Test_util.qcheck [ prop_int_in_bounds; prop_discrete_positive_weight ]);
    ]
