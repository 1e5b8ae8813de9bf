(* xoshiro256++ with splitmix64 seeding. Both algorithms are public domain
   (Blackman & Vigna). State is four 64-bit words. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (int64 t) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

(* Stateless keyed derivation: mix the two key words through one splitmix64
   round each before seeding, so adjacent (seed, index) pairs land far
   apart. Unlike [split], no generator state is consumed — the stream for a
   given key is a pure function of the key, which is what makes per-edit
   streams identical at any domain count and in any evaluation order. *)
let reseed_keyed t ~seed index =
  let state = ref (Int64.of_int seed) in
  let a = splitmix64_next state in
  state := Int64.logxor a (Int64.of_int index);
  t.s0 <- splitmix64_next state;
  t.s1 <- splitmix64_next state;
  t.s2 <- splitmix64_next state;
  t.s3 <- splitmix64_next state

let keyed ~seed index =
  let t = { s0 = 0L; s1 = 0L; s2 = 0L; s3 = 0L } in
  reseed_keyed t ~seed index;
  t

(* A keyed base seed drawn from an ambient generator: one [int64] draw,
   masked to a nonnegative OCaml int. Callers derive per-item streams with
   [keyed ~seed:(derive_key rng) item] — the single draw keeps the existing
   [~rng] APIs while making every downstream stream order-independent. *)
let derive_key t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

(* 53 random bits scaled to [0,1). *)
let float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let rec float_open t =
  let x = float t in
  if x > 0.0 then x else float_open t

let float_range t lo hi =
  if not (lo < hi) then invalid_arg "Rng.float_range: empty range";
  lo +. ((hi -. lo) *. float t)

(* Rejection sampling for unbiased bounded ints. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (int64 t) (Int64.of_int (bound - 1)))
  else begin
    let limit = Int64.sub (Int64.div Int64.max_int (Int64.of_int bound)) 1L in
    let limit = Int64.mul limit (Int64.of_int bound) in
    let rec draw () =
      let x = Int64.shift_right_logical (int64 t) 1 in
      if x >= limit then draw ()
      else Int64.to_int (Int64.rem x (Int64.of_int bound))
    in
    draw ()
  end

let bool t = Int64.logand (int64 t) 1L = 1L

let discrete t weights =
  let n = Array.length weights in
  if n <= 0 then invalid_arg "Rng.discrete: no weights";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    if not (weights.(i) >= 0.0) then
      invalid_arg "Rng.discrete: negative or NaN weight";
    total := !total +. weights.(i)
  done;
  if not (!total > 0.0) then invalid_arg "Rng.discrete: no positive mass";
  let target = float t *. !total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc && weights.(i) > 0.0 then i else scan (i + 1) acc
  in
  (* The guard [weights.(i) > 0.0] skips zero-weight indices that target could
     land on only through floating-point ties. *)
  let i = scan 0 0.0 in
  if weights.(i) > 0.0 then i
  else begin
    (* Fall back to the last strictly positive weight. *)
    let rec back j = if weights.(j) > 0.0 then j else back (j - 1) in
    back (n - 1)
  end

let discrete_prefix t pfs ~lo ~hi =
  if not (0 <= lo && lo < hi && hi < Array.length pfs) then
    invalid_arg "Rng.discrete_prefix: bounds out of range";
  let base = pfs.(lo) in
  let mass = pfs.(hi) -. base in
  if not (mass > 0.0) then invalid_arg "Rng.discrete_prefix: no positive mass";
  let target = base +. (float_open t *. mass) in
  (* Smallest index i in (lo, hi] with pfs.(i) >= target. *)
  let rec bisect a b =
    if a >= b then a
    else
      let mid = (a + b) / 2 in
      if pfs.(mid) >= target then bisect a mid else bisect (mid + 1) b
  in
  bisect (lo + 1) hi

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t lambda =
  if not (lambda > 0.0) then
    invalid_arg "Rng.exponential: rate must be positive";
  -.log (float_open t) /. lambda

let pareto t ~alpha ~x_min =
  if not (alpha > 0.0 && x_min > 0.0) then
    invalid_arg "Rng.pareto: alpha and x_min must be positive";
  x_min /. (float_open t ** (1.0 /. alpha))
