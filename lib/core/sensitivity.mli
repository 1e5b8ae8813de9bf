(** Adjoint sensitivity of IR drop to conductance changes.

    For the drop system [A x = b] ([A = L_G + D]) and a scalar objective
    [phi = c^T x] (e.g. the drop at the worst node, or total weighted
    drop), the adjoint method gives the gradient with respect to every
    edge conductance with {e one} extra solve:

    [A lambda = c], then for edge (u,v):
    [d phi / d w_uv = -(x_u - x_v) (lambda_u - lambda_v)],
    and for a pad conductance at node u: [d phi / d d_u = -x_u lambda_u].

    This is the workhorse of power-grid optimization (wire widening, pad
    placement): one PowerRChol-preconditioned solve prices every possible
    fix at once. Both solves share the same preconditioner. *)

type gradient = {
  d_edges : float array;  (** per coalesced edge of the problem graph *)
  d_pads : float array;  (** per node: sensitivity to its excess diagonal *)
  objective : float;  (** phi = c^T x at the current design *)
}

val of_objective :
  ?rtol:float -> ?seed:int -> Sddm.Problem.t -> c:Sparse.Vec.t -> gradient
(** [of_objective p ~c] computes phi = c^T x and its gradient. Raises
    [Invalid_argument] if [c] is not of the system's dimension. *)

val worst_node_drop :
  ?rtol:float -> ?seed:int -> Sddm.Problem.t -> int * gradient
(** Solves, finds the worst-drop node [w], and returns [(w, gradient)] for
    the objective [x_w]. One factorization serves the primal and the
    adjoint solve. *)

val most_critical_edges : Sddm.Problem.t -> gradient -> int -> (int * int * float * float) list
(** [most_critical_edges p g k] lists the [k] edges whose conductance
    increase reduces the objective fastest: [(u, v, weight, dphi_dw)] with
    the most negative derivatives first. *)
