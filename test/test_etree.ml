(* Property tests for the elimination-tree machinery behind the exact
   Cholesky factorization: parent-array shape, and [ereach] against a
   dense symbolic factorization. *)

module Etree = Factor.Etree

let problem_matrix ~seed ~n ~m =
  (Test_util.random_problem ~seed ~n ~m).Sddm.Problem.a

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
            prop_ereach_matches_dense_symbolic;
          ] );
    ]
