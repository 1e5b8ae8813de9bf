type t = int array

let identity n = Array.init n (fun i -> i)

let is_valid p =
  let n = Array.length p in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then ok := false else seen.(i) <- true)
    p;
  !ok

let inverse p =
  let n = Array.length p in
  let inv = Array.make n (-1) in
  for k = 0 to n - 1 do
    inv.(p.(k)) <- k
  done;
  inv

let apply_vec p (x : Vec.t) : Vec.t =
  assert (Array.length p = Vec.length x);
  Vec.init (Array.length p) (fun k -> Vec.get x p.(k))

let apply_inv_vec p (y : Vec.t) : Vec.t =
  let n = Array.length p in
  assert (n = Vec.length y);
  let x = Vec.create n in
  for k = 0 to n - 1 do
    Vec.set x p.(k) (Vec.get y k)
  done;
  x

let of_order keys =
  let n = Array.length keys in
  let p = Array.init n (fun i -> i) in
  (* Stable sort so equal keys keep their original relative order; Alg. 4 of
     the paper depends on stability when promoting heavy-edge nodes. *)
  let cmp a b = compare keys.(a) keys.(b) in
  let lst = Array.to_list p in
  let sorted = List.stable_sort cmp lst in
  Array.of_list sorted

let random rng n =
  let p = identity n in
  Rng.shuffle rng p;
  p
