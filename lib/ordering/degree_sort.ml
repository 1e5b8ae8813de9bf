(* Alg. 4's bucket rule as one counting sort on the key 2·degree + light:
   ascending degree, heavy slots at the front of each degree class, and
   slot order within a class. *)
let order_slots ~heavy_factor ~w_avg ~deg ~w_max len dst off =
  let threshold = heavy_factor *. w_avg in
  let key i = (2 * deg.(i)) + if w_max.(i) > threshold then 0 else 1 in
  let d_max = ref 0 in
  for i = 0 to len - 1 do
    if deg.(i) > !d_max then d_max := deg.(i)
  done;
  let start = Array.make ((2 * !d_max) + 3) 0 in
  for i = 0 to len - 1 do
    let k = key i + 1 in
    start.(k) <- start.(k) + 1
  done;
  for k = 1 to Array.length start - 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  for i = 0 to len - 1 do
    let k = key i in
    dst.(off + start.(k)) <- i;
    start.(k) <- start.(k) + 1
  done

let order ?(heavy_factor = 10.0) g =
  Obs.span "degree_sort" @@ fun () ->
  let n = Sddm.Graph.n_vertices g in
  let deg = Sddm.Graph.degrees g in
  let w_max = Sddm.Graph.max_incident_weight g in
  let w_avg = Sddm.Graph.average_weight g in
  if Obs.enabled () then begin
    let threshold = heavy_factor *. w_avg in
    let heavy = ref 0 in
    Array.iter (fun w -> if w > threshold then incr heavy) w_max;
    (* gauges, not counters: these describe the graph being ordered, so
       repeated preparations in one capture must not sum them *)
    Obs.gauge "heavy_nodes" (float_of_int !heavy);
    Obs.gauge "max_degree" (float_of_int (Array.fold_left max 0 deg))
  end;
  let p = Array.make n 0 in
  order_slots ~heavy_factor ~w_avg ~deg ~w_max n p 0;
  p
