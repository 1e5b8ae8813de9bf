(* The annotations make every comparison an unboxed float compare: without
   them the function is compiled polymorphic, whatever the .mli says, and
   each [<] boxes two floats and calls polymorphic compare. *)
let locate_into ~(a : float array) ~a_len ~(targets : float array) ~t_len
    ~(out : int array) =
  if a_len > Array.length a then
    invalid_arg "Locate.locate_into: a_len exceeds the length of a";
  if t_len > Array.length targets || t_len > Array.length out then
    invalid_arg
      "Locate.locate_into: t_len exceeds the length of targets or out";
  let c = ref 0 in
  for j = 0 to t_len - 1 do
    while !c < a_len && a.(!c) < targets.(j) do
      incr c
    done;
    assert (!c < a_len);
    out.(j) <- !c
  done

let locate ~(a : float array) ~(targets : float array) =
  let out = Array.make (Array.length targets) 0 in
  locate_into ~a ~a_len:(Array.length a) ~targets
    ~t_len:(Array.length targets) ~out;
  out

let locate_reference ~(a : float array) ~(targets : float array) =
  let n = Array.length a in
  let find (t : float) =
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) >= t then bisect lo mid else bisect (mid + 1) hi
    in
    let i = bisect 0 n in
    assert (i < n);
    i
  in
  Array.map find targets
