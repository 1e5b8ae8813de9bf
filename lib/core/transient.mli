(** Transient power-grid analysis by backward-Euler time stepping.

    With on-die decoupling capacitance [C] (diagonal: decap to ground) the
    grid obeys [C dv/dt + G v = -i(t)] in the drop formulation. Backward
    Euler with a fixed step [h] gives, per step,

    [(G + C/h) v_{k+1} = (C/h) v_k + b(t_{k+1})],

    and [G + C/h] is again SDDM — the capacitors only add to the excess
    diagonal. The system matrix is constant across steps, so the LT-RChol
    preconditioner is built {e once} and every step is a handful of PCG
    iterations warm-started from the previous voltage. This is exactly the
    workload where cheap-to-build, high-quality preconditioners pay off
    most, and the reason power-grid papers care about preconditioner
    construction time.

    Time-varying loads are modeled by a scalar waveform multiplying the DC
    load vector (clock gating: the whole block switches together). *)

type t
(** A prepared transient simulation: shifted matrix, factorization,
    initial state. *)

type step_stats = {
  time : float;  (** simulated time at the end of the step (s) *)
  iterations : int;  (** PCG iterations this step *)
  max_drop : float;  (** worst instantaneous IR drop (V) *)
  mean_drop : float;
}

type result = {
  steps : step_stats array;
  v_final : Sparse.Vec.t;  (** final drop vector *)
  peak_drop : float;  (** max over all steps *)
  peak_time : float;  (** when the peak occurred *)
  total_iterations : int;
  t_prepare : float;  (** one-time reordering + factorization seconds *)
  t_march : float;  (** total time-stepping seconds *)
}

val prepare :
  ?rtol:float -> ?seed:int -> circuit:Powergrid.Generate.circuit -> h:float -> unit -> t
(** [prepare ~circuit ~h ()] builds the backward-Euler operator
    [G + C/h] for step size [h] (seconds) and factors it with the
    PowerRChol pipeline (Alg. 4 + LT-RChol) with [seed]. Raises
    [Invalid_argument] if [h <= 0] or the circuit has no capacitance at
    all (use DC analysis instead). *)

val problem : t -> Sddm.Problem.t
(** The current shifted backward-Euler system [G + C/h]. Re-read after
    {!update}: a pattern-growing edit replaces the record wholesale. *)

val update : t -> Sddm.Edit.t list -> Engine.Session.update_report
(** Apply grid edits (ECO flow) to the shifted system between marches,
    through the session's incremental update rungs ({!Engine.Session}).
    Edits address the {e shifted} matrix: conductance edits mean exactly
    what they do at DC, while [Set_excess node s] sets the node's pad
    conductance {e plus} its [C/h] contribution to [s]. The next
    {!simulate} (and {!dc_drop}) picks up the edited matrix and the
    revalidated preconditioner; the PCG workspace — and with it
    warm-started iteration state — survives every rung, including the
    full re-prepare. *)

val simulate :
  t -> steps:int -> waveform:(float -> float) -> result
(** [simulate t ~steps ~waveform] marches [steps] backward-Euler steps
    from the all-zero drop state. [waveform time] scales the DC load
    vector at each step (values in [0, inf); 1 = full DC load). Raises
    [Invalid_argument] if [steps <= 0]. *)

val dc_drop : t -> Sparse.Vec.t
(** Steady-state drop under full load, for comparing transient peaks
    against the DC answer. Prepares the unshifted system afresh with the
    seed given to {!prepare}. *)

(** Common load waveforms. *)
module Waveform : sig
  val step : float -> float
  (** 0 before t=0, 1 after: power-on surge. *)

  val pulse : period:float -> duty:float -> float -> float
  (** Clock-gated block: 1 during the first [duty] fraction of each
      period, 0 otherwise. Raises [Invalid_argument] unless [period > 0]
      and [0 <= duty <= 1]. *)

  val ramp : rise:float -> float -> float
  (** Linear ramp from 0 to 1 over [rise] seconds. Raises
      [Invalid_argument] unless [rise > 0]. *)
end
