(** Coordinate-format (COO) builder for sparse matrices.

    A [Triplet.t] is an append-only list of [(row, col, value)] entries;
    duplicates are allowed and are summed when compressing to CSC. Test
    fixtures, the in-memory MatrixMarket reader, {!Csc.add} and the AMG
    coarse operators assemble through it; SDDM matrices of a graph are
    written straight to CSC by [Sddm.Graph.to_sddm]. *)

type t

val create : ?capacity:int -> n_rows:int -> n_cols:int -> unit -> t

val n_rows : t -> int
val n_cols : t -> int
val length : t -> int
(** Number of stored entries (before duplicate summing). *)

val add : t -> int -> int -> float -> unit
(** [add t i j v] appends entry [(i, j, v)]. Bounds-checked. *)

val add_symmetric : t -> int -> int -> float -> unit
(** [add_symmetric t i j v] appends both [(i,j,v)] and [(j,i,v)] when
    [i <> j], just [(i,i,v)] otherwise. *)

val iter : t -> (int -> int -> float -> unit) -> unit
