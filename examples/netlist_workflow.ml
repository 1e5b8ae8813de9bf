(* Full netlist workflow: synthesize a grid, export SPICE, parse it back,
   solve the voltage formulation, and cross-check the two formulations.

   This is the round trip an external tool integration would use: the
   netlist is the interchange format, the solver never sees generator
   internals.

   Run with:  dune exec examples/netlist_workflow.exe *)

let () =
  let spec = Powergrid.Generate.default ~nx:60 ~ny:60 ~seed:99 in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let path = Filename.temp_file "powerrchol_example" ".sp" in
  Powergrid.Netlist.write_circuit_file path circuit;
  Format.printf "wrote %s (%d resistors, %d pads, %d loads, vdd %.1f V)@."
    path
    (Array.length circuit.Powergrid.Generate.resistors)
    (Array.length circuit.Powergrid.Generate.pads)
    (Array.length circuit.Powergrid.Generate.loads)
    circuit.Powergrid.Generate.vdd;

  (* parse it back like a third-party netlist *)
  let netlist = Powergrid.Netlist.parse_file path in
  Sys.remove path;
  let { Powergrid.Netlist.problem; node_names; fixed_voltage } =
    Powergrid.Netlist.to_problem ~name:"parsed-grid" netlist
  in
  Format.printf "parsed: %s, %d fixed rails@."
    (Sddm.Problem.describe problem)
    (List.length fixed_voltage);

  (* voltage formulation: unknowns are absolute node voltages *)
  let result = Powerrchol.Solver.run (Powerrchol.Solver.powerrchol ()) problem in
  Format.printf "@.%a@.@." Powerrchol.Solver.pp_result result;

  (* lowest node voltage = worst IR drop *)
  let worst = ref (0, infinity) in
  Sparse.Vec.iteri
    (fun i v -> if v < snd !worst then worst := (i, v))
    result.Powerrchol.Solver.x;
  let worst_idx, worst_v = !worst in
  Format.printf "worst node: %s at %.4f V (drop %.4f V from the %.1f V rail)@."
    node_names.(worst_idx) worst_v
    (circuit.Powergrid.Generate.vdd -. worst_v)
    circuit.Powergrid.Generate.vdd;

  (* cross-check with the generator's native drop formulation *)
  let drop_problem = Powergrid.Generate.circuit_to_problem ~name:"drop" circuit in
  let drop =
    Powerrchol.Solver.run ~rtol:1e-10 (Powerrchol.Solver.powerrchol ())
      drop_problem
  in
  let vdd = circuit.Powergrid.Generate.vdd in
  let max_err = ref 0.0 in
  Array.iteri
    (fun idx name ->
      let orig = int_of_string (String.sub name 1 (String.length name - 1)) in
      let predicted = vdd -. drop.Powerrchol.Solver.x.{orig} in
      let err = Float.abs (predicted -. result.Powerrchol.Solver.x.{idx}) in
      if err > !max_err then max_err := err)
    node_names;
  Format.printf
    "voltage-formulation vs drop-formulation max mismatch: %.2e V@." !max_err
