(** The named benchmark suite mirroring the paper's evaluation.

    Cases 1–16 stand in for the IBM (`ibmpg3..8`) and THU (`thupg1..10`)
    power grids of Tables 1–3; cases 17–28 stand in for the SuiteSparse
    SDDM matrices of Table 4 (see DESIGN.md for the substitution table).
    All cases are generated deterministically; sizes default to roughly
    1/40–1/150 of the paper's (which ran up to 6e7 nodes on a server) and
    scale with the [scale] argument — the bench harness wires it to the
    [BENCH_SCALE] environment variable. *)

type case = {
  id : string;  (** e.g. "pg07" or "youtube" *)
  analog_of : string;  (** the paper's case this mirrors, e.g. "thupg1" *)
  build : unit -> Sddm.Problem.t;  (** deterministic; safe to call twice *)
}

val power_grid_cases : ?scale:float -> unit -> case array
(** The 16 power-grid cases. [scale] multiplies node counts (default 1). *)

val other_cases : ?scale:float -> unit -> case array
(** The 12 Table-4 analogs. *)

val all_cases : ?scale:float -> unit -> case array
(** Concatenation of the above, in table order (28 cases). *)

val find : ?scale:float -> string -> case
(** Look up a case by [id] or by [analog_of] name. Raises [Not_found]. *)

val scale_case : ?seed:int -> target_nodes:int -> unit -> case
(** The Fig. 3 scale case: the smallest square power grid with at least
    [target_nodes] unknowns, built by the chunked generator (safe to
    request 1e6+ nodes). [id] is ["scale-<target>"]. *)
