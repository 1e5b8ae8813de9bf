(** LT-RChol-oriented matrix reordering — Algorithm 4 of the paper.

    Nodes are sorted by degree ascending; within each degree class, nodes
    adjacent to a "heavy" edge (weight greater than [heavy_factor] times the
    average edge weight, 10x in the paper) are moved to the front, because
    eliminating such a node late makes its heaviest neighbor's degree blow up
    (Eq. 12). Runs in O(|V| + |E|). *)

val order : ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t
(** [order g] returns the permutation (new index -> old index).
    [heavy_factor] defaults to 10 (the paper's choice); pass [infinity] to
    disable heavy-edge promotion (plain degree sort), which the ablation
    bench uses. *)

val order_slots :
  heavy_factor:float ->
  w_avg:float ->
  deg:int array ->
  w_max:float array ->
  int ->
  int array ->
  int ->
  unit
(** The bucket rule itself, over caller-computed statistics, for orderings
    that apply Alg. 4 to part of a graph ({!Partitioned}'s blocks).
    [order_slots ~heavy_factor ~w_avg ~deg ~w_max len dst off] writes the
    slots [0 .. len-1] into [dst.(off) .. dst.(off + len - 1)]: by
    ascending [deg.(i)], within a degree the heavy slots
    ([w_max.(i) > heavy_factor *. w_avg]) first, and ties in slot order.
    Reads only the first [len] entries of [deg] and [w_max]. O(len + max
    degree); {!order} is this over the whole graph. *)
