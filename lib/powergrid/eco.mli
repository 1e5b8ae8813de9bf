(** ECO (engineering change order) edit scenarios for generated grids.

    Late-stage physical design iterates: remove a via, move a pad, widen
    a wire, re-bin a load — then re-check IR drop. This module turns a
    {!Generate} grid into a deterministic stream of such edits, the
    workload behind the edit-storm bench and the incremental re-solve
    tests ({!Engine.Session} in the core library).

    Determinism contract: scenario [i] is derived from [Rng.keyed ~seed i]
    alone — no ambient state, no dependence on how many scenarios are
    built or in which order, so a storm sliced across domains or replayed
    one scenario at a time produces byte-identical edits. *)

type kind =
  | Via_removal
      (** scale a layer-crossing via down by 1e-6 — electrically removed,
          pattern (and SPD margin) preserved *)
  | Pad_relocation
      (** zero one pad's excess conductance, re-create it at a padless
          top-layer node; skipped (degrades to wire strengthening) when
          the grid has fewer than two pads *)
  | Wire_strengthen  (** scale a bottom-layer segment by 4 (wire widening) *)
  | Load_shift
      (** move one load current to another load site — a pure
          right-hand-side edit *)

val kind_name : kind -> string

val all_kinds : kind list
(** The default round-robin: via removal, pad relocation, wire
    strengthening, load shift, repeating. *)

type scenario = {
  index : int;
  kind : kind;  (** actual kind after degradation, not the requested one *)
  label : string;  (** human-readable one-liner for logs *)
  edits : Sddm.Edit.t list;  (** applied as one update batch *)
}

val storm :
  ?seed:int -> ?kinds:kind list -> spec:Generate.spec -> Generate.circuit ->
  count:int -> scenario array
(** [storm ~spec circuit ~count] builds [count] scenarios over the
    circuit's classified element pools (vias, bottom-layer wires, pads,
    loads). [kinds] (default {!all_kinds}) round-robins by scenario
    index; [seed] defaults to 1. [spec] must be the spec that generated
    [circuit] — the bottom/top layer split is recovered from its
    dimensions. *)

val max_support : scenario array -> int
(** Largest number of distinct matrix nodes any single scenario touches,
    as [pgsolve edit-storm] prints it and the [edits] bench section
    records it. *)
