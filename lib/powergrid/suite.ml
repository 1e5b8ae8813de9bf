type case = {
  id : string;
  analog_of : string;
  build : unit -> Sddm.Problem.t;
}

let scaled scale n = max 24 (int_of_float (float_of_int n *. sqrt scale))

(* ---- power-grid cases (Tables 1-3) ----
   Bottom-mesh side lengths chosen so relative sizes track the paper's 16
   cases (ibmpg3..8 small, thupg1..10 growing to the largest). *)
let pg_dims =
  [|
    ("pg01", "ibmpg3", 110, 3001);
    ("pg02", "ibmpg4", 116, 3002);
    ("pg03", "ibmpg5", 125, 3003);
    ("pg04", "ibmpg6", 155, 3004);
    ("pg05", "ibmpg7", 146, 3005);
    ("pg06", "ibmpg8", 146, 3006);
    ("pg07", "thupg1", 260, 3007);
    ("pg08", "thupg2", 300, 3008);
    ("pg09", "thupg3", 330, 3009);
    ("pg10", "thupg4", 380, 3010);
    ("pg11", "thupg5", 430, 3011);
    ("pg12", "thupg6", 470, 3012);
    ("pg13", "thupg7", 500, 3013);
    ("pg14", "thupg8", 560, 3014);
    ("pg15", "thupg9", 610, 3015);
    ("pg16", "thupg10", 640, 3016);
  |]

let power_grid_cases ?(scale = 1.0) () =
  Array.map
    (fun (id, analog_of, side, seed) ->
      let side = scaled scale side in
      {
        id;
        analog_of;
        build =
          (fun () ->
            (* the suite id names the problem for table printing *)
            Sddm.Problem.rename
              (Generate.generate (Generate.default ~nx:side ~ny:side ~seed))
              id);
      })
    pg_dims

(* ---- Table 4 analogs ---- *)

let sprinkle_ground ~seed ~fraction ~value n =
  let rng = Rng.create seed in
  let d = Array.make n 0.0 in
  let hits = max 1 (int_of_float (fraction *. float_of_int n)) in
  for _ = 1 to hits do
    d.(Rng.int rng n) <- value
  done;
  d

let graph_problem ~id ~seed g =
  let n = Sddm.Graph.n_vertices g in
  let d = sprinkle_ground ~seed:(seed + 17) ~fraction:0.01 ~value:1.0 n in
  let rng = Rng.create (seed + 29) in
  let b = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
  Sddm.Problem.of_graph ~name:id ~graph:g ~d ~b

let other_specs ~scale =
  let s n = scaled scale n in
  [|
    ( "youtube",
      "com-Youtube",
      fun () ->
        Gen_graphs.power_law ~n:(s 180 * s 180) ~avg_degree:6.5 ~alpha:2.0
          ~seed:4101 );
    ( "amazon",
      "com-Amazon",
      fun () ->
        let n = s 170 * s 170 in
        (* community size ~10, like com-Amazon's small ground-truth groups *)
        Gen_graphs.community ~n ~communities:(max 1 (n / 10)) ~p_in:0.4
          ~inter_degree:2.0 ~seed:4102 );
    ( "dblp",
      "com-DBLP",
      fun () ->
        let n = s 165 * s 165 in
        (* co-authorship cliques of ~8 *)
        Gen_graphs.community ~n ~communities:(max 1 (n / 8)) ~p_in:0.6
          ~inter_degree:1.5 ~seed:4103 );
    ( "copaper",
      "coPapersDBLP",
      fun () ->
        let n = s 120 * s 120 in
        (* coPapersDBLP is dense (nnz/|V| ~ 57): big dense communities *)
        Gen_graphs.community ~n ~communities:(max 1 (n / 30)) ~p_in:0.8
          ~inter_degree:2.0 ~seed:4104 );
    ( "ecology",
      "ecology2",
      fun () -> Gen_graphs.mesh2d ~nx:(s 200) ~ny:(s 200) () );
    ( "thermal",
      "thermal2",
      fun () -> Gen_graphs.mesh2d_9pt ~nx:(s 150) ~ny:(s 150) () );
    ( "g3circuit",
      "G3_circuit",
      fun () -> Gen_graphs.mesh3d ~nx:(s 35) ~ny:(s 35) ~nz:(s 24) () );
    ( "naca",
      "NACA0015",
      fun () ->
        let n = s 170 * s 170 in
        let radius = sqrt (7.0 /. (Float.pi *. float_of_int n)) in
        Gen_graphs.geometric ~n ~radius ~seed:4108 );
    ( "fetooth",
      "fe_tooth",
      fun () ->
        let n = s 90 * s 90 in
        let radius = sqrt (12.0 /. (Float.pi *. float_of_int n)) in
        Gen_graphs.geometric ~n ~radius ~seed:4109 );
    ( "feocean",
      "fe_ocean",
      fun () -> Gen_graphs.mesh3d ~nx:(s 25) ~ny:(s 25) ~nz:(s 22) () );
    ( "mo2010",
      "mo2010",
      fun () ->
        let n = s 130 * s 130 in
        let radius = sqrt (6.0 /. (Float.pi *. float_of_int n)) in
        Gen_graphs.geometric ~n ~radius ~seed:4111 );
    ( "oh2010",
      "oh2010",
      fun () ->
        let n = s 135 * s 135 in
        let radius = sqrt (6.0 /. (Float.pi *. float_of_int n)) in
        Gen_graphs.geometric ~n ~radius ~seed:4112 );
  |]

let other_cases ?(scale = 1.0) () =
  Array.mapi
    (fun k (id, analog_of, build_graph) ->
      {
        id;
        analog_of;
        build = (fun () -> graph_problem ~id ~seed:(4200 + k) (build_graph ()));
      })
    (other_specs ~scale)

let all_cases ?scale () =
  Array.append (power_grid_cases ?scale ()) (other_cases ?scale ())

let find ?scale key =
  let cases = all_cases ?scale () in
  match
    Array.find_opt (fun c -> c.id = key || c.analog_of = key) cases
  with
  | Some c -> c
  | None -> raise Not_found

(* Paper-scale single case: smallest square grid with at least
   [target_nodes] unknowns (both layers counted). Built by the chunked
   generator, so requesting 1e6+ nodes does not hold a boxed grid in
   RAM. *)
let scale_case ?(seed = 3100) ~target_nodes () =
  if target_nodes < 24 * 24 then
    invalid_arg "Suite.scale_case: target too small";
  (* node_count(side) = side^2 + ceil(side/4)^2, monotone in side. The
     sqrt estimate can land on either side of the answer (the ceil term
     overshoots by up to ~side/2), so walk down to below the target
     before walking up to the smallest satisfying side. *)
  let node_count side =
    Generate.node_count (Generate.default ~nx:side ~ny:side ~seed)
  in
  let side =
    ref (max 2 (int_of_float (sqrt (float_of_int target_nodes /. 1.0625))))
  in
  while !side > 2 && node_count (!side - 1) >= target_nodes do
    decr side
  done;
  while node_count !side < target_nodes do
    incr side
  done;
  let side = !side in
  {
    id = Printf.sprintf "scale-%d" target_nodes;
    analog_of = "fig3-scale";
    build = (fun () -> Generate.generate (Generate.default ~nx:side ~ny:side ~seed));
  }

let random_rhs p ~seed =
  let rng = Rng.create seed in
  let n = Sddm.Problem.n p in
  let b = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
  Sddm.Problem.of_graph ~name:p.Sddm.Problem.name ~graph:p.Sddm.Problem.graph
    ~d:p.Sddm.Problem.d ~b
