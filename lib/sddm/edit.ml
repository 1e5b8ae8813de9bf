open Sparse.Idx.Ops
module Vec = Sparse.Vec

type t =
  | Set_conductance of { u : int; v : int; siemens : float }
  | Scale_conductance of { u : int; v : int; factor : float }
  | Add_resistor of { u : int; v : int; siemens : float }
  | Set_excess of { node : int; siemens : float }
  | Set_load of { node : int; amps : float }

let support = function
  | Set_conductance { u; v; _ }
  | Scale_conductance { u; v; _ }
  | Add_resistor { u; v; _ } -> [ u; v ]
  | Set_excess { node; _ } -> [ node ]
  | Set_load _ -> []

let to_string = function
  | Set_conductance { u; v; siemens } ->
    Printf.sprintf "set-conductance %d-%d %g" u v siemens
  | Scale_conductance { u; v; factor } ->
    Printf.sprintf "scale-conductance %d-%d %g" u v factor
  | Add_resistor { u; v; siemens } ->
    Printf.sprintf "add-resistor %d-%d %g" u v siemens
  | Set_excess { node; siemens } ->
    Printf.sprintf "set-excess %d %g" node siemens
  | Set_load { node; amps } -> Printf.sprintf "set-load %d %g" node amps

let validate ~n e =
  let node what i =
    if i < 0 || i >= n then
      invalid_arg
        (Printf.sprintf "Edit %s: %s %d out of range [0,%d)" (to_string e)
           what i n)
  in
  let nonneg what x =
    if not (x >= 0.0 && x < infinity) then
      invalid_arg
        (Printf.sprintf "Edit %s: %s %g must be finite and nonnegative"
           (to_string e) what x)
  in
  match e with
  | Set_conductance { u; v; siemens } ->
    node "endpoint" u;
    node "endpoint" v;
    if u = v then invalid_arg (Printf.sprintf "Edit %s: self loop" (to_string e));
    nonneg "conductance" siemens
  | Scale_conductance { u; v; factor } ->
    node "endpoint" u;
    node "endpoint" v;
    if u = v then invalid_arg (Printf.sprintf "Edit %s: self loop" (to_string e));
    nonneg "factor" factor
  | Add_resistor { u; v; siemens } ->
    node "endpoint" u;
    node "endpoint" v;
    if u = v then invalid_arg (Printf.sprintf "Edit %s: self loop" (to_string e));
    nonneg "conductance" siemens;
    if siemens = 0.0 then
      invalid_arg (Printf.sprintf "Edit %s: zero conductance" (to_string e))
  | Set_excess { node = i; siemens } ->
    node "node" i;
    nonneg "conductance" siemens
  | Set_load { node = i; amps } ->
    node "node" i;
    if not (Float.is_finite amps) then
      invalid_arg (Printf.sprintf "Edit %s: non-finite current" (to_string e))

(* ------------------------------------------------------------------ *)
(* Mutable edited-matrix state.

   The state owns deep copies of everything (edge arrays, excess
   diagonal, rhs, and the assembled CSC matrix), so applying edits never
   mutates the problem the caller handed in. Value-only edits patch the
   CSC values in place through its (private but readable) Bigarray
   fields — the pattern never changes, so SpMV-based consumers holding
   the matrix see every edit immediately. Pattern-growing edits rebuild
   the matrix from the edge arrays. *)

type state = {
  n : int;
  name : string;
  mutable us : int array;
  mutable vs : int array;  (* us.(e) < vs.(e) *)
  mutable ws : float array;  (* current weights; edits may zero them *)
  mutable n_edges : int;
  d : float array;  (* current excess diagonal *)
  b : Vec.t;  (* current rhs, patched in place *)
  edge_of : (int * int, int) Hashtbl.t;
  mutable problem : Problem.t;
  mutable generation : int;  (* bumped on every pattern rebuild *)
}

(* Add [dv] to the stored entry A(i,j); false when (i,j) is not in the
   pattern (the caller then rebuilds). Rows are sorted within a column
   (CSC invariant), so a binary search finds the slot. *)
let csc_add a i j dv =
  let col_ptr = a.Sparse.Csc.col_ptr
  and row_idx = a.Sparse.Csc.row_idx
  and values = a.Sparse.Csc.values in
  let lo = ref col_ptr.%(j) and hi = ref (col_ptr.%(j + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = row_idx.%(mid) in
    if r = i then begin
      Vec.set values mid (Vec.get values mid +. dv);
      found := true
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let rebuild_problem st =
  let keep = ref 0 in
  for e = 0 to st.n_edges - 1 do
    if st.ws.(e) > 0.0 then incr keep
  done;
  let us = Array.make (max !keep 1) 0
  and vs = Array.make (max !keep 1) 0
  and ws = Array.make (max !keep 1) 0.0 in
  let out = ref 0 in
  for e = 0 to st.n_edges - 1 do
    if st.ws.(e) > 0.0 then begin
      us.(!out) <- st.us.(e);
      vs.(!out) <- st.vs.(e);
      ws.(!out) <- st.ws.(e);
      incr out
    end
  done;
  let graph =
    Graph.coalesce
      (Graph.of_arrays ~n:st.n ~us:(Array.sub us 0 !keep)
         ~vs:(Array.sub vs 0 !keep) ~ws:(Array.sub ws 0 !keep))
  in
  Problem.of_graph ~name:st.name ~graph ~d:(Array.copy st.d)
    ~b:(Vec.copy st.b)

let of_problem (p : Problem.t) =
  let g = Graph.coalesce p.Problem.graph in
  let m = Graph.n_edges g in
  let us = Array.make (max m 1) 0
  and vs = Array.make (max m 1) 0
  and ws = Array.make (max m 1) 0.0 in
  let edge_of = Hashtbl.create (max m 16) in
  let k = ref 0 in
  Graph.iter_edges g (fun u v w ->
      us.(!k) <- u;
      vs.(!k) <- v;
      ws.(!k) <- w;
      Hashtbl.replace edge_of (u, v) !k;
      incr k);
  let st =
    {
      n = Problem.n p;
      name = p.Problem.name;
      us;
      vs;
      ws;
      n_edges = m;
      d = Array.copy p.Problem.d;
      b = Vec.copy p.Problem.b;
      edge_of;
      problem = p;
      generation = 0;
    }
  in
  (* own a private copy of the assembled matrix so in-place value patches
     cannot leak into the caller's problem *)
  st.problem <- rebuild_problem st;
  st

let problem st = st.problem
let fresh_problem st = rebuild_problem st
let generation st = st.generation

let rebuild st =
  st.problem <- rebuild_problem st;
  st.generation <- st.generation + 1;
  st.problem

type change =
  | No_change
  | Rhs_changed of { node : int }
  | Edge_changed of { u : int; v : int; from_w : float; to_w : float }
  | Excess_changed of { node : int; from_s : float; to_s : float }
  | Pattern_grew of { u : int; v : int; siemens : float }

let grow_edges st u v w =
  if st.n_edges = Array.length st.us then begin
    let cap = max (2 * st.n_edges) 16 in
    let grow a zero =
      let a' = Array.make cap zero in
      Array.blit a 0 a' 0 st.n_edges;
      a'
    in
    st.us <- grow st.us 0;
    st.vs <- grow st.vs 0;
    st.ws <- grow st.ws 0.0
  end;
  st.us.(st.n_edges) <- u;
  st.vs.(st.n_edges) <- v;
  st.ws.(st.n_edges) <- w;
  Hashtbl.replace st.edge_of (u, v) st.n_edges;
  st.n_edges <- st.n_edges + 1

(* Apply one edge-weight delta both to the edge array and, in place, to
   the four stamped CSC entries. When any of the four entries is missing
   from the pattern (the edge was zeroed before an earlier rebuild
   dropped it), the matrix is rebuilt and the change is reported as
   pattern growth. *)
let edge_delta st u v slot dw =
  let from_w = st.ws.(slot) in
  let to_w = from_w +. dw in
  st.ws.(slot) <- to_w;
  let a = st.problem.Problem.a in
  let ok =
    csc_add a u v (-.dw) && csc_add a v u (-.dw)
    && csc_add a u u dw && csc_add a v v dw
  in
  if ok then Edge_changed { u; v; from_w; to_w }
  else begin
    st.problem <- rebuild_problem st;
    st.generation <- st.generation + 1;
    Pattern_grew { u; v; siemens = to_w }
  end

let apply st e =
  validate ~n:st.n e;
  let canon u v = if u < v then (u, v) else (v, u) in
  match e with
  | Set_load { node; amps } ->
    let cur = st.b.{node} in
    if cur = amps then No_change
    else begin
      st.b.{node} <- amps;
      st.problem.Problem.b.{node} <- amps;
      Rhs_changed { node }
    end
  | Set_excess { node; siemens } ->
    let from_s = st.d.(node) in
    if from_s = siemens then No_change
    else begin
      st.d.(node) <- siemens;
      st.problem.Problem.d.(node) <- siemens;
      let found = csc_add st.problem.Problem.a node node (siemens -. from_s) in
      (* to_sddm stores every diagonal, even zeros, so the slot exists *)
      assert found;
      Excess_changed { node; from_s; to_s = siemens }
    end
  | Set_conductance { u; v; siemens } -> (
    let u, v = canon u v in
    match Hashtbl.find_opt st.edge_of (u, v) with
    | Some slot ->
      let dw = siemens -. st.ws.(slot) in
      if dw = 0.0 then No_change else edge_delta st u v slot dw
    | None ->
      if siemens = 0.0 then No_change
      else begin
        grow_edges st u v siemens;
        st.problem <- rebuild_problem st;
        st.generation <- st.generation + 1;
        Pattern_grew { u; v; siemens }
      end)
  | Scale_conductance { u; v; factor } -> (
    let u, v = canon u v in
    match Hashtbl.find_opt st.edge_of (u, v) with
    | Some slot ->
      let dw = (factor -. 1.0) *. st.ws.(slot) in
      if dw = 0.0 then No_change else edge_delta st u v slot dw
    | None ->
      invalid_arg
        (Printf.sprintf "Edit %s: edge not present" (to_string e)))
  | Add_resistor { u; v; siemens } -> (
    let u, v = canon u v in
    match Hashtbl.find_opt st.edge_of (u, v) with
    | Some slot -> edge_delta st u v slot siemens
    | None ->
      grow_edges st u v siemens;
      st.problem <- rebuild_problem st;
      st.generation <- st.generation + 1;
      Pattern_grew { u; v; siemens })

let apply_all st edits = List.map (apply st) edits

let edited_problem p edits =
  let st = of_problem p in
  List.iter (fun e -> ignore (apply st e)) edits;
  rebuild_problem st
