(* Property tests for the elimination-tree machinery that the session
   layer's etree-local re-factorization rung leans on: parent-array shape,
   [reach] (ancestor closure with a budget) checked against a brute-force
   rootward walk, and [ereach] against a dense symbolic factorization. *)

module Etree = Factor.Etree

let problem_matrix ~seed ~n ~m =
  (Test_util.random_problem ~seed ~n ~m).Sddm.Problem.a

(* brute-force ancestor closure: walk every seed to its root *)
let closure_ref ~parent ~seeds =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let j = ref s in
      while !j <> -1 && not (Hashtbl.mem seen !j) do
        Hashtbl.add seen !j ();
        j := parent.(!j)
      done)
    seeds;
  seen

let prop_parent_strictly_ancestral =
  QCheck.Test.make ~name:"etree parents are higher-numbered (acyclic)"
    ~count:60
    QCheck.(triple small_int (int_range 8 60) (int_range 10 150))
    (fun (seed, n, m) ->
      let a = problem_matrix ~seed ~n ~m in
      let parent = Etree.etree a in
      Array.length parent = n
      && Array.for_all2
           (fun p j -> p = -1 || p > j)
           parent
           (Array.init n (fun j -> j)))

let gen_reach_case =
  QCheck.(
    quad small_int (int_range 8 60) (int_range 10 150)
      (list_of_size (Gen.int_range 1 5) small_nat))

let prop_reach_matches_brute_force =
  QCheck.Test.make ~name:"reach equals brute-force ancestor closure"
    ~count:100 gen_reach_case
    (fun (seed, n, m, raw_seeds) ->
      let a = problem_matrix ~seed ~n ~m in
      let parent = Etree.etree a in
      let seeds =
        Array.of_list (List.map (fun s -> s mod n) raw_seeds)
      in
      let reference = closure_ref ~parent ~seeds in
      let mark = Array.make n (-1) in
      let count = Etree.reach ~parent ~seeds ~mark ~stamp:1 ~limit:n in
      count = Hashtbl.length reference
      && Array.for_all
           (fun j -> mark.(j) = 1 = Hashtbl.mem reference j)
           (Array.init n (fun j -> j)))

let prop_reach_respects_limit =
  QCheck.Test.make ~name:"reach returns -1 when the closure exceeds limit"
    ~count:100 gen_reach_case
    (fun (seed, n, m, raw_seeds) ->
      let a = problem_matrix ~seed ~n ~m in
      let parent = Etree.etree a in
      let seeds =
        Array.of_list (List.map (fun s -> s mod n) raw_seeds)
      in
      let size = Hashtbl.length (closure_ref ~parent ~seeds) in
      QCheck.assume (size > 1);
      let mark = Array.make n (-1) in
      Etree.reach ~parent ~seeds ~mark ~stamp:1 ~limit:(size - 1) = -1)

(* ---- ereach against a dense symbolic factorization ---- *)

let dense_fill_pattern a =
  let d = Sparse.Csc.to_dense a in
  let n = Array.length d in
  let p = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = 0 to i do
      if d.(i).(j) <> 0.0 then p.(i).(j) <- true
    done
  done;
  (* right-looking symbolic Cholesky: eliminating j fills the clique of
     its below-diagonal pattern *)
  for j = 0 to n - 1 do
    for k = j + 1 to n - 1 do
      if p.(k).(j) then
        for i = k + 1 to n - 1 do
          if p.(i).(j) then p.(i).(k) <- true
        done
    done
  done;
  p

let prop_ereach_matches_dense_symbolic =
  QCheck.Test.make ~name:"ereach row pattern matches dense symbolic factor"
    ~count:40
    QCheck.(triple small_int (int_range 6 28) (int_range 8 60))
    (fun (seed, n, m) ->
      let a = problem_matrix ~seed ~n ~m in
      let parent = Etree.etree a in
      let fill = dense_fill_pattern a in
      let mark = Array.make n (-1) in
      let stack = Array.make n 0 in
      let ok = ref true in
      for k = 0 to n - 1 do
        let top = Etree.ereach a k ~parent ~mark ~stamp:(k + 1) ~stack in
        let row = Array.make n false in
        for t = top to n - 1 do
          row.(stack.(t)) <- true
        done;
        for j = 0 to k - 1 do
          if row.(j) <> fill.(k).(j) then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "etree"
    [
      ( "property",
        Test_util.qcheck
          [
            prop_parent_strictly_ancestral;
            prop_reach_matches_brute_force;
            prop_reach_respects_limit;
            prop_ereach_matches_dense_symbolic;
          ] );
    ]
