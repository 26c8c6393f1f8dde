(** Deterministic workload generation for the evaluation scenarios.

    The chain scenario instantiates Example 6: three relations
    r1(W,X), r2(X,Y), r3(Y,Z), each populated with C tuples whose join
    attributes are drawn from a domain of size [C/J] (so the measured join
    factor approaches J), and W/Z drawn from a wide range (so the
    condition [W > Z] selects about half the rows).

    The keyed scenario provides a two-relation view with genuine unique
    keys on both sides, for ECAK/ECAL workloads. All generation is seeded
    and reproducible. *)

module R := Relational

val chain_r1 : R.Schema.t
val chain_r2 : R.Schema.t
val chain_r3 : R.Schema.t
val chain_schemas : R.Schema.t list

val example6_db : Spec.t -> R.Db.t
(** Three C-tuple relations with the Spec's join-factor targets. *)

val example6_updates :
  ?round_robin:bool -> Spec.t -> db:R.Db.t -> R.Update.t list
(** [k_updates] single-tuple updates; relations cycle r1, r2, r3 by
    default (Example 6's pattern), or are drawn uniformly with
    [~round_robin:false]. Deletes (per [insert_ratio]) remove uniformly
    chosen existing tuples of the evolving state. *)

val keyed_r1 : R.Schema.t
val keyed_r2 : R.Schema.t
val keyed_schemas : R.Schema.t list

val keyed_db : Spec.t -> R.Db.t
(** r1(W KEY, X) and r2(X, Y KEY) with W, Y = 0..C−1 unique. *)

val keyed_updates : Spec.t -> db:R.Db.t -> R.Update.t list
(** Inserts allocate fresh key values; deletes pick existing tuples. *)

val pick_existing : Random.State.t -> R.Db.t -> string -> R.Tuple.t option
(** A uniformly chosen current tuple of a relation (None when empty):
    one draw below its cardinality, taken as a rank in canonical tuple
    order ({!Relational.Db.nth}), so the choice does not depend on the
    bag's hash order. *)

val int_at : rel:string -> col:string -> R.Tuple.t -> int -> int
(** The integer at position [i] of a key column. Raises
    [Invalid_argument] naming the relation and column when the value is
    not an [Int] — the generator's key arithmetic (fresh-key allocation,
    FK tracking) is integer-only by design. *)

val zipf_below : skew:float -> Random.State.t -> int -> int
(** Zipf-distributed value in [[0, n)]; [skew = 0] is uniform. *)

val selfmaint_r1 : R.Schema.t
val selfmaint_r2 : R.Schema.t

val selfmaint_schemas : R.Schema.t list
(** FK target [r2] first — [Db.add_relation] validates references. *)

val selfmaint_db : Spec.t -> R.Db.t
(** r1(W KEY, X → r2(X), A) and r2(X KEY, Y, B), C tuples each, with
    referential integrity holding by construction. *)

val selfmaint_updates : Spec.t -> db:R.Db.t -> R.Update.t list
(** Integrity-preserving stream: r1 inserts reference a live r2 key,
    r2 deletes only remove unreferenced rows (substituting an insert
    when no candidate exists). *)

val adversarial_r1 : R.Schema.t
val adversarial_r2 : R.Schema.t
val adversarial_schemas : R.Schema.t list

val adversarial_db : Spec.t -> R.Db.t
(** The same join with no keys and no foreign keys. *)

val adversarial_updates : Spec.t -> db:R.Db.t -> R.Update.t list
