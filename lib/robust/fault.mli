(** Deterministic fault-injection combinators.

    Each combinator corrupts a healthy input with one specific real-world
    pathology so tests can prove every recovery path actually fires: the
    outcome of solving a faulted system must be a typed diagnostic or
    breakdown, or a verified recovered solution — never a silent wrong
    answer. *)

val inject_nan : ?entry:int -> Sparse.Csc.t -> Sparse.Csc.t
(** Replace the [entry]-th stored nonzero (default 0) with NaN. *)

val inject_nan_rhs : ?row:int -> Sparse.Vec.t -> Sparse.Vec.t
(** Copy of the rhs with one NaN entry. *)

val break_dominance : ?row:int -> ?factor:float -> Sparse.Csc.t -> Sparse.Csc.t
(** Scale one diagonal entry by [factor] (default 0.25) so the row loses
    diagonal dominance. *)

val zero_row : row:int -> Sparse.Csc.t -> Sparse.Csc.t
(** Erase row and column [row]: a dead net with no stamps (singular). *)

val corrupt_weight_scale :
  ?scale:float -> ?row:int -> Sparse.Csc.t -> Sparse.Csc.t
(** Scale all off-diagonals incident to [row] by [scale] (default 1e6)
    without touching diagonals — a conductance with a wrong unit prefix.
    Keeps symmetry, destroys dominance. *)

val disconnect_island :
  ?island:int -> ?grounded:bool -> Sddm.Problem.t -> Sddm.Problem.t
(** Cut the last [island] vertices (default 4) off from the rest of the
    graph. [grounded = true] (default) keeps every island vertex tied to
    ground: the result is valid but disconnected, recoverable via
    {!Diagnose.split_components}. [grounded = false] produces a floating
    pure-Laplacian island: singular, must be rejected by diagnostics. *)
