(** The correctness hierarchy of Section 3.1, decided over recorded state
    sequences.

    [source_states] must be [V[ss_0]; V[ss_1]; …] — the view applied to the
    source state initially and after each update event — and
    [warehouse_states] must be [MV at ws_0; …] — the materialized view
    initially and after each installation. Both sequences come from the
    simulation runner's trace. States compare by bag equality.

    Cost: linear in the two sequences. One pointer pass matches each
    warehouse state to the earliest source state at or after the previous
    match, comparing {!Relational.Bag.fingerprint}s (O(1) each), and
    confirms each match with {!Relational.Bag.equal_since} from the last
    confirmed pair. States built from their predecessors by a few changes
    — installs from installs, oracle snapshots from snapshots — confirm
    in O(changes · log view size); otherwise a confirmation is one
    [Bag.equal], O(view size). A fingerprint collision costs one failed
    confirmation and never changes a verdict. A warehouse state
    physically equal to its predecessor reuses the predecessor's match.
    For [S] source and [W] warehouse states a check is O(S + W) fingerprint
    reads plus at most [W] confirmations, and coverage, needed only by
    completeness, at most [S] more. *)

module R := Relational

type report = {
  convergent : bool;
      (** the final warehouse state equals the final source state *)
  weakly_consistent : bool;
      (** every warehouse state equals {e some} source state *)
  consistent : bool;
      (** an order-preserving mapping from warehouse states to value-equal
          source states exists *)
  strongly_consistent : bool;  (** consistent and convergent *)
  complete : bool;
      (** strongly consistent, and every source state appears at the
          warehouse *)
}

val check :
  source_states:R.Bag.t list -> warehouse_states:R.Bag.t list -> report

val convergent :
  source_states:R.Bag.t list -> warehouse_states:R.Bag.t list -> bool

val strongest_label : report -> string
(** Human-readable name of the strongest property satisfied. *)

val pp : Format.formatter -> report -> unit
