(* Transient (backward-Euler) analysis tests. *)

let tiny_circuit ~cap =
  (* one node: pad resistor 1 ohm to vdd-ground path... in drop
     formulation: node with conductance 1.0 to ground (pad), load 1 A,
     decap [cap]. RC decay is analytically checkable. *)
  {
    Powergrid.Generate.n_nodes = 1;
    resistors = [||];
    pads = [| (0, 1.0) |];
    loads = [| (0, 1.0) |];
    caps = [| (0, cap) |];
    vdd = 1.8;
  }

let test_rc_step_response () =
  (* single RC node, unit step load: backward Euler recurrence is
     v_{k+1} = (v_k * C/h + I) / (G + C/h); closed form checkable *)
  let cap = 1.0 and g = 1.0 and h = 0.1 in
  let t = Powerrchol.Transient.prepare ~rtol:1e-12 ~circuit:(tiny_circuit ~cap) ~h () in
  let res =
    Powerrchol.Transient.simulate t ~steps:50
      ~waveform:Powerrchol.Transient.Waveform.step
  in
  let coh = cap /. h in
  let expected = ref 0.0 in
  Array.iter
    (fun (s : Powerrchol.Transient.step_stats) ->
      expected := ((!expected *. coh) +. 1.0) /. (g +. coh);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "v at t=%.2f" s.Powerrchol.Transient.time)
        !expected s.Powerrchol.Transient.max_drop)
    res.Powerrchol.Transient.steps

let test_converges_to_dc () =
  (* constant full load: transient must settle to the DC drop *)
  let spec = Powergrid.Generate.default ~nx:16 ~ny:16 ~seed:881 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let t = Powerrchol.Transient.prepare ~rtol:1e-10 ~circuit ~h:1e-10 () in
  let res =
    Powerrchol.Transient.simulate t ~steps:400
      ~waveform:Powerrchol.Transient.Waveform.step
  in
  let dc = Powerrchol.Transient.dc_drop t in
  let err = Sparse.Vec.max_abs_diff res.Powerrchol.Transient.v_final dc in
  Alcotest.(check bool)
    (Printf.sprintf "settles to DC (err %.2e)" err)
    true
    (err < 1e-6 *. Sparse.Vec.norm_inf dc +. 1e-12)

let test_zero_load_stays_zero () =
  let spec = Powergrid.Generate.default ~nx:12 ~ny:12 ~seed:883 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let t = Powerrchol.Transient.prepare ~circuit ~h:1e-11 () in
  let res =
    Powerrchol.Transient.simulate t ~steps:10 ~waveform:(fun _ -> 0.0)
  in
  Alcotest.(check (float 0.0)) "no excitation, no drop" 0.0
    res.Powerrchol.Transient.peak_drop

let test_pulse_peak_bounded_by_dc () =
  (* drops never exceed the steady-state bound for loads in [0, 1] *)
  let spec = Powergrid.Generate.default ~nx:20 ~ny:20 ~seed:887 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let t = Powerrchol.Transient.prepare ~rtol:1e-10 ~circuit ~h:2e-11 () in
  let res =
    Powerrchol.Transient.simulate t ~steps:150
      ~waveform:(Powerrchol.Transient.Waveform.pulse ~period:6e-10 ~duty:0.5)
  in
  let dc = Sparse.Vec.norm_inf (Powerrchol.Transient.dc_drop t) in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.4f <= dc %.4f (+tol)" res.Powerrchol.Transient.peak_drop dc)
    true
    (res.Powerrchol.Transient.peak_drop <= dc +. (1e-6 *. dc))

let test_warm_start_efficiency () =
  (* with a constant waveform, later steps should converge in very few
     iterations because the state barely changes *)
  let spec = Powergrid.Generate.default ~nx:24 ~ny:24 ~seed:889 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let t = Powerrchol.Transient.prepare ~circuit ~h:1e-10 () in
  let res =
    Powerrchol.Transient.simulate t ~steps:60
      ~waveform:Powerrchol.Transient.Waveform.step
  in
  let steps = res.Powerrchol.Transient.steps in
  let last = steps.(Array.length steps - 1) in
  let first = steps.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "late steps cheap (%d vs %d)"
       last.Powerrchol.Transient.iterations first.Powerrchol.Transient.iterations)
    true
    (last.Powerrchol.Transient.iterations <= first.Powerrchol.Transient.iterations)

let test_requires_capacitance () =
  let circuit =
    { (tiny_circuit ~cap:1.0) with Powergrid.Generate.caps = [||] }
  in
  Alcotest.(check bool) "rejects pure-resistive circuit" true
    (match Powerrchol.Transient.prepare ~circuit ~h:1e-10 () with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_dc_drop_uses_seed () =
  (* dc_drop factors the unshifted system with the seed given to prepare:
     bit-identical to a seed-7 solve of that system, not the default-seed
     one *)
  let spec = Powergrid.Generate.default ~nx:14 ~ny:14 ~seed:2024 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let h = 1e-10 and rtol = 1e-6 in
  let t = Powerrchol.Transient.prepare ~rtol ~seed:7 ~circuit ~h () in
  (* the unshifted system, rebuilt from the shifted one as dc_drop does *)
  let shifted = Powerrchol.Transient.problem t in
  let cap_over_h = Array.make (Sddm.Problem.n shifted) 0.0 in
  Array.iter
    (fun (node, farads) ->
      cap_over_h.(node) <- cap_over_h.(node) +. (farads /. h))
    circuit.Powergrid.Generate.caps;
  let d = Array.mapi (fun i di -> di -. cap_over_h.(i)) shifted.Sddm.Problem.d in
  let b =
    (Powergrid.Generate.circuit_to_problem ~name:"dc" circuit).Sddm.Problem.b
  in
  let dc =
    Sddm.Problem.of_graph ~name:"ref-dc" ~graph:shifted.Sddm.Problem.graph ~d ~b
  in
  let solve seed =
    let prepared = Powerrchol.Solver.powerrchol_prepare ~seed dc in
    (Powerrchol.Solver.solve_prepared ~rtol prepared).Powerrchol.Solver.x
  in
  let x = Powerrchol.Transient.dc_drop t in
  Alcotest.(check bool) "bit-identical to the seed-7 solve" true (x = solve 7);
  Alcotest.(check bool) "differs from the default-seed solve" true
    (x <> solve Powerrchol.Solver.default_seed)

let test_rejects_nonpositive_steps () =
  let t =
    Powerrchol.Transient.prepare ~circuit:(tiny_circuit ~cap:1.0) ~h:0.1 ()
  in
  Alcotest.(check bool) "steps = 0 rejected" true
    (match
       Powerrchol.Transient.simulate t ~steps:0
         ~waveform:Powerrchol.Transient.Waveform.step
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_waveform_arguments_checked () =
  let module W = Powerrchol.Transient.Waveform in
  let rejected f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "pulse period 0" true
    (rejected (fun () -> W.pulse ~period:0.0 ~duty:0.5 0.25));
  Alcotest.(check bool) "pulse duty > 1" true
    (rejected (fun () -> W.pulse ~period:1.0 ~duty:1.5 0.25));
  Alcotest.(check bool) "ramp rise 0" true
    (rejected (fun () -> W.ramp ~rise:0.0 1.0))

let test_waveforms () =
  let module W = Powerrchol.Transient.Waveform in
  Alcotest.(check (float 0.0)) "step before" 0.0 (W.step (-1.0));
  Alcotest.(check (float 0.0)) "step after" 1.0 (W.step 0.5);
  Alcotest.(check (float 0.0)) "pulse on" 1.0 (W.pulse ~period:1.0 ~duty:0.5 0.25);
  Alcotest.(check (float 0.0)) "pulse off" 0.0 (W.pulse ~period:1.0 ~duty:0.5 0.75);
  Alcotest.(check (float 0.0)) "pulse periodic" 1.0
    (W.pulse ~period:1.0 ~duty:0.5 2.25);
  Alcotest.(check (float 1e-12)) "ramp mid" 0.5 (W.ramp ~rise:2.0 1.0);
  Alcotest.(check (float 0.0)) "ramp done" 1.0 (W.ramp ~rise:2.0 5.0)

let test_netlist_capacitors_roundtrip () =
  let spec = Powergrid.Generate.default ~nx:10 ~ny:10 ~seed:891 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let path = Filename.temp_file "powerrchol" ".sp" in
  Powergrid.Netlist.write_circuit_file path circuit;
  let nl = Powergrid.Netlist.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "capacitor count preserved"
    (Array.length circuit.Powergrid.Generate.caps)
    (Powergrid.Netlist.n_capacitors nl);
  let caps = Powergrid.Netlist.grounded_capacitances nl in
  Alcotest.(check int) "all grounded"
    (Array.length circuit.Powergrid.Generate.caps)
    (List.length caps);
  (* total capacitance preserved *)
  let total_in =
    Array.fold_left (fun acc (_, f) -> acc +. f) 0.0
      circuit.Powergrid.Generate.caps
  in
  let total_out = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 caps in
  Alcotest.(check (float 1e-18)) "total farads" total_in total_out

let () =
  Alcotest.run "transient"
    [
      ( "backward-euler",
        [
          Alcotest.test_case "RC step response (analytic)" `Quick
            test_rc_step_response;
          Alcotest.test_case "settles to DC" `Quick test_converges_to_dc;
          Alcotest.test_case "zero load" `Quick test_zero_load_stays_zero;
          Alcotest.test_case "pulse peak bounded" `Quick
            test_pulse_peak_bounded_by_dc;
          Alcotest.test_case "warm start helps" `Quick
            test_warm_start_efficiency;
          Alcotest.test_case "needs capacitance" `Quick
            test_requires_capacitance;
          Alcotest.test_case "dc_drop uses the seed" `Quick
            test_dc_drop_uses_seed;
          Alcotest.test_case "rejects nonpositive steps" `Quick
            test_rejects_nonpositive_steps;
        ] );
      ( "waveforms",
        [
          Alcotest.test_case "shapes" `Quick test_waveforms;
          Alcotest.test_case "arguments checked" `Quick
            test_waveform_arguments_checked;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "capacitor roundtrip" `Quick
            test_netlist_capacitors_roundtrip;
        ] );
    ]
