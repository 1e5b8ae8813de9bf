(* Order statistics over raw samples. Every end-to-end percentile the
   ledger reports comes from here, never from a bucketed histogram. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = sorted samples in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.round (floor r)) in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    s.(lo) +. (f *. (s.(hi) -. s.(lo)))
  end

let median samples = percentile samples 50.0

let mean samples =
  if Array.length samples = 0 then nan
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* First and third quartiles by the exclusive method, the default of
   Python's [statistics.quantiles(values, n=4)], so spreads computed here
   match spreads computed from the same numbers there. *)
let quartiles samples =
  let s = sorted samples in
  let n = Array.length s in
  if n < 2 then (nan, nan)
  else begin
    let q i =
      let m = i * (n + 1) in
      let j = min (n - 1) (max 1 (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end

let iqr samples =
  let q1, q3 = quartiles samples in
  q3 -. q1
