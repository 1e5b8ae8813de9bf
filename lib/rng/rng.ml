(* xoshiro256++ with splitmix64 seeding. Both algorithms are public domain
   (Blackman & Vigna). The state is one 40-byte [Bytes]: the four xoshiro
   words at byte offsets 0, 8, 16 and 24, and splitmix64's running state,
   used only while seeding, at 32. The [%caml_bytes_get64u] and
   [%caml_bytes_set64u] primitives compile to plain loads and stores, so a
   step keeps its int64 values unboxed; four [mutable int64] record fields
   would box every store. The helpers below return draws as OCaml ints
   (53 or 62 bits fit), so only [int64] itself boxes its result. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* byte offset of splitmix64's running state *)
let sm = 32

let[@inline] splitmix64_next t =
  let open Int64 in
  let z = add (get64 t sm) 0x9E3779B97F4A7C15L in
  set64 t sm z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* the four xoshiro words, drawn from the splitmix64 state *)
let seed_words t =
  set64 t 0 (splitmix64_next t);
  set64 t 8 (splitmix64_next t);
  set64 t 16 (splitmix64_next t);
  set64 t 24 (splitmix64_next t)

let of_splitmix state =
  let t = Bytes.create 40 in
  set64 t sm state;
  seed_words t;
  t

let create seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* one xoshiro256++ step: the output, and the state advanced in place *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let int64 t = next t
let split t = of_splitmix (next t)

(* Stateless keyed derivation: mix the two key words through one splitmix64
   round each before seeding, so adjacent (seed, index) pairs land far
   apart. Unlike [split], no generator state is consumed — the stream for a
   given key is a pure function of the key, which is what makes per-edit
   streams identical at any domain count and in any evaluation order. *)
let reseed_keyed t ~seed index =
  set64 t sm (Int64.of_int seed);
  let a = splitmix64_next t in
  set64 t sm (Int64.logxor a (Int64.of_int index));
  seed_words t

let keyed ~seed index =
  let t = Bytes.create 40 in
  reseed_keyed t ~seed index;
  t

(* A keyed base seed drawn from an ambient generator: one [int64] draw,
   masked to a nonnegative OCaml int. Callers derive per-item streams with
   [keyed ~seed:(derive_key rng) item] — the single draw keeps the existing
   [~rng] APIs while making every downstream stream order-independent. *)
let derive_key t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* the top 53 bits of the next output, uniform in [0, 2^53) *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* 53 random bits scaled to [0,1). *)
let float t = float_of_int (bits53 t) *. 0x1p-53

(* a zero draw is drawn again *)
let[@inline] float_open t =
  let b = ref (bits53 t) in
  while !b = 0 do
    b := bits53 t
  done;
  float_of_int !b *. 0x1p-53

let float_range t lo hi =
  if not (lo < hi) then invalid_arg "Rng.float_range: empty range";
  lo +. ((hi -. lo) *. float t)

(* Rejection sampling for unbiased bounded ints. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (next t) (Int64.of_int (bound - 1)))
  else begin
    let limit = Int64.sub (Int64.div Int64.max_int (Int64.of_int bound)) 1L in
    let limit = Int64.mul limit (Int64.of_int bound) in
    let x = ref (Int64.shift_right_logical (next t) 1) in
    while !x >= limit do
      x := Int64.shift_right_logical (next t) 1
    done;
    Int64.to_int (Int64.rem !x (Int64.of_int bound))
  end

let bool t = Int64.logand (next t) 1L = 1L

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

let discrete_prefix t (pfs : float array) ~lo ~hi =
  if not (0 <= lo && lo < hi && hi < Array.length pfs) then
    invalid_arg "Rng.discrete_prefix: bounds out of range";
  let base = pfs.(lo) in
  let mass = pfs.(hi) -. base in
  if not (mass > 0.0) then invalid_arg "Rng.discrete_prefix: no positive mass";
  let target = base +. (float_open t *. mass) in
  (* Smallest index i in (lo, hi] with pfs.(i) >= target. *)
  let a = ref (lo + 1) and b = ref hi in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if pfs.(mid) >= target then b := mid else a := mid + 1
  done;
  !a

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
