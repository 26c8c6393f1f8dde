(** Materialized-view state operations shared by the algorithms.

    A materialized view is a non-negative {!Relational.Bag.t} (duplicates
    retained, as the paper requires for incremental deletions). *)

module R := Relational

exception Mview_error of string

val apply_delta : R.Bag.t -> R.Bag.t -> R.Bag.t
(** [MV + Δ] — signed addition; deletions arrive as negative counts. *)

val key_delete : view:R.View.t -> rel:string -> R.Tuple.t -> R.Bag.t -> R.Bag.t
(** The ECAK [key-delete] operation (Section 5.4) on a bag, by scan: drop
    every view tuple whose projected key of [rel] equals the deleted
    tuple's key. Sound whenever {!Relational.View.key_positions} finds
    [rel]'s key projected: the key identifies the deleted base tuple
    uniquely, so exactly its derivations are removed. No maintenance
    path calls it: it is the scan reference that {!Keyed.key_delete} is
    tested against, and defines that operation's meaning.
    @raise Mview_error if the view does not project [rel]'s declared key. *)

val key_layout : view:R.View.t -> rel:string -> int list * int list
(** Where [rel]'s declared key sits: its positions within [rel]'s base
    tuples, and the view's output positions projecting it. A view tuple
    carries base tuple [t]'s key — what {!key_delete} drops — when its
    columns at the second list equal [t]'s at the first.
    @raise Mview_error if the view does not project [rel]'s declared key. *)

(** A materialized view indexed for key-deletes: the bag plus, per keyed
    base relation, a hash table from the view's projected key values to
    the view tuples carrying them. The tables are built by the first
    key-delete on a view of at least {!Relational.Db.scan_below} distinct
    tuples (a smaller view is scanned, and only the tuples found are
    removed) and maintained from then on. The
    instance is mutable: every operation below updates it in place. *)
module Keyed : sig
  type t

  val plain : R.Bag.t -> t
  (** No key index: every operation is the bare bag's. *)

  val create : view:R.View.t -> rels:string list -> R.Bag.t -> t
  (** Prepare key-deletes on each of [rels].
      @raise Mview_error if the view does not project one of their
      declared keys. *)

  val bag : t -> R.Bag.t
  (** The current contents; a persistent value, unaffected by later
      operations on the instance. *)

  val plus : t -> R.Bag.t -> unit
  (** [MV + Δ], keeping built tables current. *)

  val key_delete : t -> rel:string -> R.Tuple.t -> bool
  (** {!Mview.key_delete} by lookup; the result tells whether any view
      tuple carried the deleted tuple's key (when not, the contents are
      unchanged, though the tables may have just been built).
      @raise Mview_error if [rel] is not one of the keyed relations. *)

  val add_dedup : t -> R.Bag.t -> bool
  (** ECAK's answer accumulation: add each positively signed answer tuple
      unless already present (duplicates witness anomalies and are
      dropped). The result tells whether anything was added. *)
end
