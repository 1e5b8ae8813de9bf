(** A named SDDM linear system [A x = b], the unit of work every solver and
    benchmark consumes. Keeps both the matrix view and the graph/excess-
    diagonal split, since the randomized factorizations work on the latter. *)

type t = private {
  name : string;
  a : Sparse.Csc.t;
  b : Sparse.Vec.t;
  graph : Graph.t;
  d : float array;  (** excess diagonal: [a = laplacian graph + diag d] *)
}

val of_matrix : name:string -> a:Sparse.Csc.t -> b:Sparse.Vec.t -> t
(** Validates that [a] is SDDM (via {!Graph.of_sddm}) and splits it. On
    invalid input raises [Invalid_argument] with an actionable message
    naming the first offending row/entry and the total violation count
    (e.g. which entry is asymmetric, which row lost diagonal dominance). *)

val of_graph : name:string -> graph:Graph.t -> d:float array -> b:Sparse.Vec.t -> t
(** Builds the matrix from the split; cheaper when the graph is the native
    representation (generators). *)

val rename : t -> string -> t
(** [rename p name] is [p] under another name: it shares [p]'s matrix,
    graph, excess diagonal and right-hand side, and builds nothing. *)

val n : t -> int
val nnz : t -> int

val residual_norm : t -> Sparse.Vec.t -> float
(** [residual_norm p x] is [||b - A x||_2 / ||b||_2] (absolute norm if
    [b = 0]). *)

val residual_norm_against : t -> b:Sparse.Vec.t -> Sparse.Vec.t -> float
(** Like {!residual_norm} but against a caller-supplied right-hand side —
    the factor-once / solve-many path verifies each RHS against the same
    matrix. *)

val describe : t -> string
(** One-line summary: name, |V|, nnz. *)
