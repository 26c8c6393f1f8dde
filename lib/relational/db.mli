(** A database instance: named base relations with their schemas and
    current (non-negative) bag contents.

    The source site owns one of these; the SC (store copies) algorithm
    keeps a replica at the warehouse. Values are immutable — applying an
    update returns a new instance, which is what lets the simulation runner
    snapshot source states for the Section-3 consistency checkers at zero
    bookkeeping cost. *)

type t

exception Db_error of string

val empty : t

val add_relation : ?contents:Bag.t -> t -> Schema.t -> t
(** @raise Db_error on duplicate names, arity mismatches, negative counts
    in [contents], contents violating the schema's declared key, or a
    declared foreign key left dangling by [contents] (checked in both
    directions whenever referencing and referenced relation are both
    present, whatever order they were added in). *)

val of_list : (Schema.t * Bag.t) list -> t

val schema : t -> string -> Schema.t
val schema_opt : t -> string -> Schema.t option
val contents : t -> string -> Bag.t
val mem : t -> string -> bool
val relation_names : t -> string list
val schemas : t -> Schema.t list
val set_contents : t -> string -> Bag.t -> t
(** Replace a relation's contents wholesale. Checks every tuple's arity
    (no key, foreign-key or sign checks) and drops the relation's column
    indexes; they are rebuilt on the next lookup. *)

val add_tuple : ?count:int -> t -> string -> Tuple.t -> t
(** Add [count] (default 1, may be negative) copies of one tuple: the
    single-tuple form of {!set_contents}, checking only that tuple's
    arity and carrying the relation's built indexes forward. *)

val apply : ?strict:bool -> t -> Update.t -> t
(** Executes one update atomically. With [strict] (default), deleting a
    tuple that is not present raises [Db_error]; with [~strict:false] the
    delete is a no-op on absent tuples. Inserts that would put two tuples
    with equal declared-key values into a relation raise [Db_error]
    regardless of strictness — ECAK's correctness depends on declared keys
    being real. Inserts whose declared foreign keys find no referenced
    tuple (when the referenced relation is present) are rejected the same
    way — ECA-SM derives join partners from inserted tuples assuming
    referential integrity. Deletes are never FK-checked: a reference may
    dangle transiently, and any insert relying on the gap fails then. *)

val apply_all : ?strict:bool -> t -> Update.t list -> t

(** {2 Access paths}

    Each relation keeps one index per column, mapping a column value to
    the tuples holding it. An index is built on the first lookup of its
    column, carried forward by {!apply} and {!add_tuple}, and dropped by
    {!set_contents} (and by {!Evolve.db}, which rebuilds the database).
    A built index is published with an atomic compare-and-set, so domains
    sharing one database may look up concurrently; an index's contents,
    and so every result below, do not depend on which domain built it or
    when. *)

val scan_below : int
(** A relation with fewer distinct tuples is scanned instead of indexed:
    the scan costs less than keeping an index current on every update. *)

val probe : t -> string -> int -> Value.t -> (Tuple.t -> int -> unit) -> unit
(** [probe db rel i v f] calls [f tuple count] once for every tuple of
    [rel] with a nonzero count whose column [i] compares equal to [v]
    under equi-join equality ({!Value.compare_for_predicate}: an [Int]
    also matches the numerically equal [Float]s and vice versa), with
    that tuple's count, in no particular order. Indexed relations hand
    out their bucket's tuples, with count 1 when the relation is a set
    and {!Bag.count} otherwise; a relation under {!scan_below} is walked
    once, each match taking the count the walk holds. Partially applied
    to [db rel i] it resolves the index and the set test once.
    @raise Db_error on an unknown relation or column. *)

val cardinality : t -> string -> int
(** The relation's net tuple count ([Bag.net_cardinality]); O(1). *)

val distinct_values : t -> string -> int -> int
(** Distinct values of column [i] among positively counted tuples, under
    {!Value.equal} (so [Int 1] and [Float 1.0] are two values, and NaN is
    one). O(1) when the relation holds no negative count and has at least
    {!scan_below}-many distinct tuples (the first such call builds the
    column's index); with negative counts, one walk over that index.
    A smaller relation has no index (unless it shrank from one), so each
    call dedupes its column afresh, in a small sorted array. *)

val nth : t -> string -> int -> Tuple.t option
(** [nth db rel k]: the tuple at rank [k] (from 0) in {!Tuple.compare}
    order, counting each positively counted tuple as many times as its
    count; [None] when [k] is negative or at least their total. Walks the
    column-0 index when {!probe} would use one (building it if the
    relation has grown to {!scan_below} distinct tuples), skipping whole
    buckets when the relation is a set; a smaller relation is sorted
    instead. Either way the answer is the same.
    @raise Db_error on an unknown relation. *)

val fold_sorted : (Tuple.t -> int -> 'a -> 'a) -> t -> string -> 'a -> 'a
(** [fold_sorted f db rel acc] folds [f] over the tuples of [rel] with a
    nonzero count and their counts, in {!Tuple.compare} order: the fold
    of {!Bag.to_counted_list} of {!contents}, walked off the column-0
    index like {!nth} rather than sorted.
    @raise Db_error on an unknown relation. *)

val total_tuples : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
