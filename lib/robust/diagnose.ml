type entry_ref = { row : int; col : int; value : float }

type issue =
  | Nonfinite_entry of { first : entry_ref; count : int }
  | Nonfinite_rhs of { row : int; value : float; count : int }
  | Asymmetric of { first : entry_ref; mirror : float; count : int }
  | Positive_offdiag of { first : entry_ref; count : int }
  | Lost_dominance of { row : int; diag : float; offdiag : float; count : int }
  | Zero_row of { row : int; count : int }
  | Ungrounded_component of { component : int; size : int; count : int }
  | Disconnected of { components : int; largest : int }

type severity = Fatal | Recoverable

let severity = function Disconnected _ -> Recoverable | _ -> Fatal

type report = {
  n : int;
  nnz : int;
  components : int;
  issues : issue list;
}

let plural count = if count = 1 then "" else "s"

let issue_to_string = function
  | Nonfinite_entry { first = { row; col; value }; count } ->
    Printf.sprintf "%d non-finite matrix entr%s (first: A(%d,%d) = %g)" count
      (if count = 1 then "y" else "ies")
      row col value
  | Nonfinite_rhs { row; value; count } ->
    Printf.sprintf "%d non-finite rhs entr%s (first: b(%d) = %g)" count
      (if count = 1 then "y" else "ies")
      row value
  | Asymmetric { first = { row; col; value }; mirror; count } ->
    Printf.sprintf
      "asymmetric at %d entr%s (first: A(%d,%d) = %g but A(%d,%d) = %g)"
      count
      (if count = 1 then "y" else "ies")
      row col value col row mirror
  | Positive_offdiag { first = { row; col; value }; count } ->
    Printf.sprintf "%d positive off-diagonal entr%s (first: A(%d,%d) = %g)"
      count
      (if count = 1 then "y" else "ies")
      row col value
  | Lost_dominance { row; diag; offdiag; count } ->
    Printf.sprintf
      "diagonal dominance lost at %d row%s (first: row %d has diagonal %g < \
       off-diagonal sum %g)"
      count (plural count) row diag offdiag
  | Zero_row { row; count } ->
    Printf.sprintf "%d zero/empty row%s (first: row %d)" count (plural count)
      row
  | Ungrounded_component { component; size; count } ->
    Printf.sprintf
      "%d floating (ungrounded) island%s: pure-Laplacian component%s with no \
       tie to ground (first: component %d, %d node%s) — singular"
      count (plural count) (plural count) component size (plural size)
  | Disconnected { components; largest } ->
    Printf.sprintf
      "graph is disconnected: %d components (largest has %d nodes); islands \
       are solvable independently"
      components largest

let pp_report fmt r =
  Format.fprintf fmt "@[<v>matrix: n = %d, nnz = %d, %d component%s@," r.n
    r.nnz r.components (plural r.components);
  if r.issues = [] then Format.fprintf fmt "no issues found@]"
  else begin
    Format.fprintf fmt "%d issue%s:@," (List.length r.issues)
      (plural (List.length r.issues));
    List.iter
      (fun i ->
        Format.fprintf fmt "  [%s] %s@,"
          (match severity i with Fatal -> "fatal" | Recoverable -> "warn")
          (issue_to_string i))
      r.issues;
    Format.fprintf fmt "@]"
  end

let ok r = r.issues = []
let fatal_issues r = List.filter (fun i -> severity i = Fatal) r.issues
let has_fatal r = fatal_issues r <> []

(* ---- connected components of the symmetrized nonzero pattern ---- *)

let component_labels a =
  let n, _ = Sparse.Csc.dims a in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
      if i <> j && v <> 0.0 then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end);
  let label = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let r = find i in
    if label.(r) < 0 then begin
      label.(r) <- !count;
      incr count
    end;
    label.(i) <- label.(r)
  done;
  (label, !count)

(* ---- pre-flight validation of a raw (A, b) pair ---- *)

let run ~a ~b =
  let n, n_cols = Sparse.Csc.dims a in
  let nnz = Sparse.Csc.nnz a in
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if n <> n_cols then
    (* a non-square "SDDM" matrix is reported as an asymmetry of the worst
       kind: no further structural analysis is meaningful *)
    add
      (Asymmetric
         {
           first = { row = n - 1; col = n_cols - 1; value = Float.nan };
           mirror = Float.nan;
           count = 1;
         });
  (* non-finite entries *)
  let nf_count = ref 0 in
  let nf_first = ref None in
  Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
      if not (Float.is_finite v) then begin
        if !nf_first = None then nf_first := Some { row = i; col = j; value = v };
        incr nf_count
      end);
  (match !nf_first with
   | Some first -> add (Nonfinite_entry { first; count = !nf_count })
   | None -> ());
  (* non-finite rhs *)
  let nfb_count = ref 0 in
  let nfb_first = ref None in
  Sparse.Vec.iteri
    (fun i v ->
      if not (Float.is_finite v) then begin
        if !nfb_first = None then nfb_first := Some (i, v);
        incr nfb_count
      end)
    b;
  (match !nfb_first with
   | Some (row, value) -> add (Nonfinite_rhs { row; value; count = !nfb_count })
   | None -> ());
  let n_components = ref 1 in
  if n = n_cols then begin
    let finite = !nf_count = 0 in
    (* per-row diagonal and off-diagonal absolute sums (columns = rows for
       the symmetric matrices we expect; asymmetry is flagged separately) *)
    let diag = Array.make n 0.0 in
    let offsum = Array.make n 0.0 in
    let row_nnz = Array.make n 0 in
    let pos_count = ref 0 in
    let pos_first = ref None in
    Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
        row_nnz.(j) <- row_nnz.(j) + 1;
        if Float.is_finite v then begin
          if i = j then diag.(j) <- v
          else begin
            offsum.(j) <- offsum.(j) +. Float.abs v;
            if v > 0.0 then begin
              if !pos_first = None then
                pos_first := Some { row = i; col = j; value = v };
              incr pos_count
            end
          end
        end);
    (match !pos_first with
     | Some first -> add (Positive_offdiag { first; count = !pos_count })
     | None -> ());
    (* asymmetry: check each stored off-diagonal against its mirror *)
    if finite then begin
      let asym_count = ref 0 in
      let asym_first = ref None in
      Sparse.Csc.fold_nonzeros a ~init:() ~f:(fun () i j v ->
          if i < j then begin
            let mirror = Sparse.Csc.get a j i in
            let scale = Float.max (Float.abs v) 1.0 in
            if Float.abs (mirror -. v) > 1e-12 *. scale then begin
              if !asym_first = None then
                asym_first := Some ({ row = i; col = j; value = v }, mirror);
              incr asym_count
            end
          end
          else if i > j && Sparse.Csc.get a j i = 0.0 && v <> 0.0 then begin
            (* lower entry with structurally missing upper mirror *)
            if !asym_first = None then
              asym_first := Some ({ row = i; col = j; value = v }, 0.0);
            incr asym_count
          end);
      (match !asym_first with
       | Some (first, mirror) ->
         add (Asymmetric { first; mirror; count = !asym_count })
       | None -> ())
    end;
    (* zero / empty rows *)
    let zero_count = ref 0 in
    let zero_first = ref (-1) in
    for i = 0 to n - 1 do
      if row_nnz.(i) = 0 || (diag.(i) = 0.0 && offsum.(i) = 0.0) then begin
        if !zero_first < 0 then zero_first := i;
        incr zero_count
      end
    done;
    if !zero_count > 0 then
      add (Zero_row { row = !zero_first; count = !zero_count });
    (* lost diagonal dominance *)
    if finite then begin
      let dom_count = ref 0 in
      let dom_first = ref None in
      for i = 0 to n - 1 do
        let tol = 1e-10 *. Float.max diag.(i) 1.0 in
        if diag.(i) +. tol < offsum.(i) then begin
          if !dom_first = None then dom_first := Some i;
          incr dom_count
        end
      done;
      (match !dom_first with
       | Some row ->
         add
           (Lost_dominance
              {
                row;
                diag = diag.(row);
                offdiag = offsum.(row);
                count = !dom_count;
              })
       | None -> ())
    end;
    (* connectivity and grounding *)
    let labels, components = component_labels a in
    n_components := components;
    if components > 1 then begin
      let sizes = Array.make components 0 in
      Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) labels;
      let largest = Array.fold_left max 0 sizes in
      (* a component is grounded when some row keeps strictly positive
         excess diagonal (a tie to ground); a pure-Laplacian island is
         singular and no solver can recover it *)
      if finite then begin
        let grounded = Array.make components false in
        for i = 0 to n - 1 do
          let tol = 1e-10 *. Float.max diag.(i) 1.0 in
          if diag.(i) -. offsum.(i) > tol then grounded.(labels.(i)) <- true
        done;
        let ung_count = ref 0 in
        let ung_first = ref None in
        for c = 0 to components - 1 do
          if (not grounded.(c)) && sizes.(c) > 0 then begin
            (* a lone zero row is already reported as Zero_row *)
            let is_zero_row_singleton =
              sizes.(c) = 1
              &&
              let v = ref (-1) in
              Array.iteri (fun i l -> if l = c && !v < 0 then v := i) labels;
              !v >= 0 && (row_nnz.(!v) = 0 || (diag.(!v) = 0.0 && offsum.(!v) = 0.0))
            in
            if not is_zero_row_singleton then begin
              if !ung_first = None then ung_first := Some (c, sizes.(c));
              incr ung_count
            end
          end
        done;
        match !ung_first with
        | Some (component, size) ->
          add (Ungrounded_component { component; size; count = !ung_count })
        | None -> ()
      end;
      add (Disconnected { components; largest })
    end
    else if finite && components = 1 then begin
      (* single component: still verify it is grounded at all *)
      let grounded = ref false in
      for i = 0 to n - 1 do
        let tol = 1e-10 *. Float.max diag.(i) 1.0 in
        if diag.(i) -. offsum.(i) > tol then grounded := true
      done;
      if (not !grounded) && n > 0 then
        add (Ungrounded_component { component = 0; size = n; count = 1 })
    end;
    ignore labels
  end;
  { n; nnz; components = !n_components; issues = List.rev !issues }

let of_problem (p : Sddm.Problem.t) =
  run ~a:p.Sddm.Problem.a ~b:p.Sddm.Problem.b

(* ---- component splitting: solve each island independently ---- *)

type component = {
  indices : int array;  (** global vertex id of each local vertex *)
  problem : Sddm.Problem.t;
}

let split_components (p : Sddm.Problem.t) =
  let g = p.Sddm.Problem.graph in
  let n = Sddm.Graph.n_vertices g in
  let labels, count = Sddm.Graph.connected_components g in
  if count <= 1 then
    [| { indices = Array.init n (fun i -> i); problem = p } |]
  else begin
    let sizes = Array.make count 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) labels;
    let indices = Array.init count (fun c -> Array.make sizes.(c) 0) in
    let local = Array.make n 0 in
    let cursor = Array.make count 0 in
    for i = 0 to n - 1 do
      let c = labels.(i) in
      indices.(c).(cursor.(c)) <- i;
      local.(i) <- cursor.(c);
      cursor.(c) <- cursor.(c) + 1
    done;
    let edges = Array.make count [] in
    Sddm.Graph.iter_edges g (fun u v w ->
        let c = labels.(u) in
        edges.(c) <- (local.(u), local.(v), w) :: edges.(c));
    Array.init count (fun c ->
        let idx = indices.(c) in
        let sub_g =
          Sddm.Graph.create ~n:sizes.(c) ~edges:(Array.of_list edges.(c))
        in
        let d = Array.map (fun gi -> p.Sddm.Problem.d.(gi)) idx in
        let pb = p.Sddm.Problem.b in
        let b = Sparse.Vec.init (Array.length idx) (fun li -> pb.{idx.(li)}) in
        let name = Printf.sprintf "%s#c%d" p.Sddm.Problem.name c in
        { indices = idx; problem = Sddm.Problem.of_graph ~name ~graph:sub_g ~d ~b })
  end

let assemble ~n parts =
  let x = Sparse.Vec.create n in
  List.iter
    (fun (c, (xc : Sparse.Vec.t)) ->
      Array.iteri (fun li gi -> x.{gi} <- xc.{li}) c.indices)
    parts;
  x
