(** Algorithm 2 of the paper: locate each element of an ascending target
    array within another ascending array by a single two-pointer sweep —
    O(n + m) total instead of m binary searches. *)

val locate : a:float array -> targets:float array -> int array
(** [locate ~a ~targets] returns [l] with
    [l.(j) = min { i | a.(i) >= targets.(j) }] for each [j]. Both inputs must
    be ascending; every target must satisfy [targets.(j) <= a.(n-1)]
    (checked by assertion). *)

val locate_into :
  a:float array -> a_len:int -> targets:float array -> t_len:int ->
  out:int array -> unit
(** Allocation-free variant over array prefixes, used inside the
    factorization inner loop: locates [targets.(0 .. t_len - 1)] within
    [a.(0 .. a_len - 1)] into [out.(0 .. t_len - 1)]. Raises
    [Invalid_argument] when [a_len] exceeds the length of [a], or [t_len]
    that of [targets] or [out]. *)

val locate_reference : a:float array -> targets:float array -> int array
(** Binary-search implementation of the same spec (no ascending requirement
    on [targets]); used by tests to cross-check {!locate}. *)
