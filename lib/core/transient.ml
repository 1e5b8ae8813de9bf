type t = {
  session : Engine.Session.t;
      (* owns the shifted system G + C/h (b = DC loads), its updatable
         factorization, and the PCG workspace; grid edits between marches
         go through the session's incremental update rungs *)
  cap_over_h : float array;
  b_dc : Sparse.Vec.t;
  h : float;
  t_prepare : float;
  rtol : float;
}

(* The current shifted problem: re-read per use, because a pattern-growing
   edit replaces the session's problem record wholesale. *)
let problem t = Engine.Session.problem t.session

type step_stats = {
  time : float;
  iterations : int;
  max_drop : float;
  mean_drop : float;
}

type result = {
  steps : step_stats array;
  v_final : Sparse.Vec.t;
  peak_drop : float;
  peak_time : float;
  total_iterations : int;
  t_prepare : float;
  t_march : float;
}

let prepare ?(rtol = 1e-6) ?(seed = Solver.default_seed)
    ~(circuit : Powergrid.Generate.circuit) ~h () =
  if h <= 0.0 then invalid_arg "Transient.prepare: nonpositive step";
  if Array.length circuit.Powergrid.Generate.caps = 0 then
    invalid_arg "Transient.prepare: circuit has no capacitance";
  let t0 = Unix.gettimeofday () in
  let dc =
    Powergrid.Generate.circuit_to_problem ~name:"transient-dc" circuit
  in
  let n = Sddm.Problem.n dc in
  let cap_over_h = Array.make n 0.0 in
  Array.iter
    (fun (node, farads) ->
      cap_over_h.(node) <- cap_over_h.(node) +. (farads /. h))
    circuit.Powergrid.Generate.caps;
  (* shifted SDDM: same graph, excess diagonal grows by C/h *)
  let d_shifted =
    Array.mapi (fun i di -> di +. cap_over_h.(i)) dc.Sddm.Problem.d
  in
  let problem =
    Sddm.Problem.of_graph ~name:"transient-be" ~graph:dc.Sddm.Problem.graph
      ~d:d_shifted ~b:dc.Sddm.Problem.b
  in
  (* one-time PowerRChol preparation on the shifted matrix, as a versioned
     session so grid edits between marches re-validate incrementally
     instead of re-preparing from scratch *)
  let session = Engine.Session.create ~seed problem in
  {
    session;
    cap_over_h;
    b_dc = dc.Sddm.Problem.b;
    h;
    t_prepare = Unix.gettimeofday () -. t0;
    rtol;
  }

let update t edits = Engine.Session.update t.session edits

let dc_drop t =
  let dc_problem = problem t in
  (* solve G v = b: the unshifted system; rebuild it from the shifted one
     by removing C/h from the excess diagonal *)
  let d =
    Array.mapi
      (fun i di -> di -. t.cap_over_h.(i))
      dc_problem.Sddm.Problem.d
  in
  let g_problem =
    Sddm.Problem.of_graph ~name:"transient-dc" ~graph:dc_problem.Sddm.Problem.graph
      ~d ~b:t.b_dc
  in
  (* b passed explicitly: the cached handle may have been prepared from an
     equal-matrix problem with a different right-hand side *)
  let r =
    Solver.solve_prepared ~rtol:t.rtol ~b:t.b_dc (Engine.powerrchol g_problem)
  in
  r.Solver.x

let simulate t ~steps ~waveform =
  assert (steps > 0);
  (* capture the session's current preparation and matrix once per march:
     updates between marches are picked up here, updates mid-march are
     not a supported interleaving (the library is single-threaded) *)
  let prepared = Engine.Session.prepared t.session in
  let be_problem = problem t in
  let n = Sddm.Problem.n be_problem in
  let a = be_problem.Sddm.Problem.a in
  let v = Sparse.Vec.create n in
  let rhs = Sparse.Vec.create n in
  let stats = ref [] in
  let total_iterations = ref 0 in
  let peak_drop = ref 0.0 in
  let peak_time = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for k = 1 to steps do
    let time = float_of_int k *. t.h in
    let scale = waveform time in
    let b_dc = t.b_dc in
    for i = 0 to n - 1 do
      rhs.{i} <- (scale *. b_dc.{i}) +. (t.cap_over_h.(i) *. v.{i})
    done;
    (* in-place solve: [v] is both the warm start and the output buffer,
       and the handle's workspace supplies the r/z/p/q iteration vectors —
       the march allocates no n-sized arrays per step *)
    let res =
      Krylov.Pcg.solve_operator_into ~rtol:t.rtol ~warm_start:true
        ~workspace:prepared.Solver.workspace ~x:v
        ~apply_a:(Sparse.Csc.spmv_sym_into a) ~b:rhs
        ~precond:prepared.Solver.precond ()
    in
    assert (res.Krylov.Pcg.x == v);
    total_iterations := !total_iterations + res.Krylov.Pcg.iterations;
    let max_drop = Sparse.Vec.norm_inf v in
    if max_drop > !peak_drop then begin
      peak_drop := max_drop;
      peak_time := time
    end;
    stats :=
      {
        time;
        iterations = res.Krylov.Pcg.iterations;
        max_drop;
        mean_drop = Sparse.Vec.mean v;
      }
      :: !stats
  done;
  {
    steps = Array.of_list (List.rev !stats);
    v_final = v;
    peak_drop = !peak_drop;
    peak_time = !peak_time;
    total_iterations = !total_iterations;
    t_prepare = t.t_prepare;
    t_march = Unix.gettimeofday () -. t0;
  }

module Waveform = struct
  let step time = if time >= 0.0 then 1.0 else 0.0

  let pulse ~period ~duty time =
    assert (period > 0.0 && duty >= 0.0 && duty <= 1.0);
    let phase = Float.rem time period /. period in
    if phase < duty then 1.0 else 0.0

  let ramp ~rise time =
    assert (rise > 0.0);
    if time <= 0.0 then 0.0 else if time >= rise then 1.0 else time /. rise
end
