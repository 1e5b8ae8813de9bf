(** Pre-flight diagnostics for SDDM solve requests.

    A bad power-grid input (NaN-contaminated stamps, a floating node island,
    a dead net producing an empty row) must yield a structured report — not
    garbage voltages with [converged = true]. [run] validates a raw
    [(A, b)] pair {e before} any solver touches it and classifies every
    violation with its first offender and total count; {!split_components}
    turns a clean-but-disconnected system into independently solvable
    island problems. *)

type entry_ref = { row : int; col : int; value : float }

type issue =
  | Nonfinite_entry of { first : entry_ref; count : int }
      (** NaN/Inf stored in the matrix *)
  | Nonfinite_rhs of { row : int; value : float; count : int }
      (** NaN/Inf in the right-hand side *)
  | Asymmetric of { first : entry_ref; mirror : float; count : int }
      (** [A(i,j) <> A(j,i)] beyond relative 1e-12 (or the matrix is not
          square, reported with NaN placeholders) *)
  | Positive_offdiag of { first : entry_ref; count : int }
      (** positive off-diagonal: not an M-matrix *)
  | Lost_dominance of { row : int; diag : float; offdiag : float; count : int }
      (** diagonal smaller than the off-diagonal absolute row sum *)
  | Zero_row of { row : int; count : int }
      (** structurally empty (or all-zero) row: singular *)
  | Ungrounded_component of { component : int; size : int; count : int }
      (** a connected component with no tie to ground (pure Laplacian
          island): singular, the classic floating-node pathology *)
  | Disconnected of { components : int; largest : int }
      (** more than one connected component; recoverable by
          {!split_components} when each island is grounded *)

type severity = Fatal | Recoverable

val severity : issue -> severity
(** [Disconnected] is [Recoverable]; everything else is [Fatal]. *)

type report = {
  n : int;
  nnz : int;
  components : int;
  issues : issue list;
}

val run : a:Sparse.Csc.t -> b:Sparse.Vec.t -> report
(** Full pre-flight scan. Safe on arbitrarily corrupted input (never
    raises); cost is O(nnz log nnz) dominated by the symmetry probe. *)

val of_problem : Sddm.Problem.t -> report
(** [run] on a problem's matrix and rhs (catches pathologies that are
    representable in a validated problem, e.g. floating islands). *)

val ok : report -> bool
(** No issues at all. *)

val has_fatal : report -> bool

val fatal_issues : report -> issue list

val issue_to_string : issue -> string
val pp_report : Format.formatter -> report -> unit

(** {1 Island splitting} *)

type component = {
  indices : int array;  (** global vertex id of each local vertex *)
  problem : Sddm.Problem.t;  (** the island as a standalone problem *)
}

val split_components : Sddm.Problem.t -> component array
(** Partition a problem by connected component of its graph; a connected
    problem comes back as a single component sharing the input. Each
    island's sub-matrix, excess diagonal, and rhs are extracted so the
    islands can be solved independently. *)

val assemble : n:int -> (component * Sparse.Vec.t) list -> Sparse.Vec.t
(** [assemble ~n parts] scatters per-component solutions back into a
    length-[n] global vector (the inverse of {!split_components}). *)
