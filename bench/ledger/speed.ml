(* Machine-speed correction for the gated times.

   On a shared virtual machine the speed of the same code drifts by up to
   2x for minutes at a time, with other tenants' load, so the median
   operation of ten runs on the README's baseline machine spread by up to
   45 % of its median in a busy hour. Within one run the drift is slow,
   so a fixed kernel of the ledger's own code, timed in the same thread
   between the operations, slows down with them, and the gated times are
   scaled by [factor ()]: the kernel's nominal time over its median time
   in the run. In the README's baseline sets this cut the ten-run spread
   of the median operation from 3-28 % to 1-8 %. A change to the
   libraries moves the operations and not the kernel, so it still shows
   in full. *)

(* The kernel's nominal time. It only sets the scale: scaled times read
   as the times on a machine that runs the kernel in this long; the
   README's baseline machine ran it in 2.5-4.4 ms. Changing it would
   shift every baseline number. *)
let nominal_s = 0.003

(* The kernel mimics the three access patterns of a sparse solve, on a
   working set the size of the workloads' (3 MB): a scattered gather, as
   in a sparse product; a five-point stencil sweep, as in a product or a
   triangular sweep over a grid; and a streaming dot product, as in the
   vector kernels. Each alone tracked some workloads worse than the three
   together. The arrays live outside the OCaml heap, so they do not grow
   it. *)
let n = 1 lsl 17
let nx = 362

let data =
  let open Bigarray in
  lazy
    ( Array1.init float64 c_layout n (fun i -> float_of_int (i land 255)),
      Array1.create float64 c_layout n,
      Array1.init int c_layout n (fun i -> (i * 7919) land (n - 1)) )

let samples = ref []
let sink = ref 0.0

let kernel () =
  let x, y, idx = Lazy.force data in
  for _ = 1 to 2 do
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. x.{idx.{i}}
    done;
    sink := !sink +. !acc
  done;
  for _ = 1 to 3 do
    for i = nx to n - nx - 1 do
      y.{i} <-
        (4.0 *. x.{i}) -. x.{i - 1} -. x.{i + 1} -. x.{i - nx} -. x.{i + nx}
    done
  done;
  for _ = 1 to 5 do
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (x.{i} *. y.{i})
    done;
    sink := !sink +. !acc
  done

(* Runs the kernel once and records its time. *)
let probe () =
  let t0 = Spans.now () in
  kernel ();
  samples := (Spans.now () -. t0) :: !samples

let median_s () = Stats.median (Array.of_list !samples)

(* 1 when the machine runs the kernel in its nominal time, less when it
   runs slower. *)
let factor () = nominal_s /. median_s ()
