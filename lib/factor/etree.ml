(* Elimination tree with path-compressed ancestors. *)
let etree a =
  let _, n = Sparse.Csc.dims a in
  let parent = Array.make n (-1) in
  let ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    Sparse.Csc.iter_col a k (fun i _ ->
        if i < k then begin
          let node = ref i in
          let continue_ = ref true in
          while !continue_ do
            let next = ancestor.(!node) in
            ancestor.(!node) <- k;
            if next = -1 then begin
              parent.(!node) <- k;
              continue_ := false
            end
            else if next = k then continue_ := false
            else node := next
          done
        end)
  done;
  parent

(* Pattern of row k of L: walk the etree upward from each below-diagonal
   entry of column k of A, stopping at already-marked nodes; each walked
   path is emitted in reverse into stack.(top..n-1), which yields a
   topological order (descendants before ancestors). *)
let ereach a k ~parent ~mark ~stamp ~stack =
  let n = Array.length parent in
  let path = ref (Array.make 64 0) in
  let top = ref n in
  mark.(k) <- stamp;
  Sparse.Csc.iter_col a k (fun i _ ->
      if i < k then begin
        let len = ref 0 in
        let node = ref i in
        while !node <> -1 && mark.(!node) <> stamp do
          if !len = Array.length !path then begin
            let bigger = Array.make (2 * !len) 0 in
            Array.blit !path 0 bigger 0 !len;
            path := bigger
          end;
          !path.(!len) <- !node;
          incr len;
          mark.(!node) <- stamp;
          node := parent.(!node)
        done;
        for q = !len - 1 downto 0 do
          decr top;
          stack.(!top) <- !path.(q)
        done
      end);
  !top
