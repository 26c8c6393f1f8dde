(** Signed, ℤ-counted bags of tuples — the paper's "relations with signed
    tuples" (Section 4.1).

    Each tuple maps to a net replication count: a positive count [n] stands
    for [n] copies of the tuple with a [+] sign, a negative count for copies
    with a [−] sign. Base relations and materialized views are non-negative
    bags; query answers and view deltas may carry negative counts.

    The paper defines [r1 + r2 = (pos(r1) ∪ pos(r2)) − (neg(r1) ∪ neg(r2))]
    and states that [+] and [−] are commutative and associative. Truncating
    multiset difference would break associativity, so — consistently with
    the replication-count reading — we use ℤ counts, under which all the
    stated laws hold exactly.

    Representation: tuples are indexed by their hash in a persistent
    big-endian Patricia trie, so {!add}, {!count} and {!mem} cost O(1)
    expected tuple comparisons and one path copy. A tuple's entry sits
    inline in its leaf (four words); only a real hash collision makes a
    bucket list. The trie's shape depends only on the set of hashes, so
    equal bags have equal shapes whatever built them. {!fold} and
    {!iter} enumerate in ascending signed hash order, collisions in the
    order last changed first — deterministic for a given bag, but not
    sorted. Callers that need the canonical tuple order (printing,
    serialization, picking a deterministic representative) must go
    through {!to_counted_list}, {!to_list} or {!pp}, which sort by
    [Tuple.compare]. *)

type t

val empty : t
val is_empty : t -> bool

val count : t -> Tuple.t -> int
(** Net replication count of a tuple (0 when absent). *)

val add : ?count:int -> Tuple.t -> t -> t
(** [add ~count t b] adds [count] net copies (default 1; may be negative).
    Entries that reach net 0 are removed. *)

val add_get : ?count:int -> Tuple.t -> t -> int * t
(** [add_get ~count t b = (count b t, add ~count t b)], from one hash of
    [t] and one descent of the bag instead of two. The bag returned is
    the one {!add} builds, node for node, so folds and {!equal_since}'s
    sharing are the same whichever function made it. With [count = 0]
    it is [b] itself. *)

val remove_all : Tuple.t -> t -> int * t
(** [remove_all t b = (count b t, add ~count:(- count b t) t b)], from one
    hash of [t] and one descent of the bag; the bag returned is the one
    {!add} builds, node for node, and [b] itself when [t] is absent. *)

val add_if_absent : Tuple.t -> t -> t
(** [add t b] when [count b t = 0], else [b] itself (physically, so
    [add_if_absent t b != b] tells whether [t] was added): one hash and
    one descent, which stops at [t]'s node when [t] is present. *)

val remove : ?count:int -> Tuple.t -> t -> t
val singleton : ?count:int -> Tuple.t -> t
val of_list : Tuple.t list -> t

val plus : t -> t -> t
(** The paper's [+] operator on signed relations. *)

val minus : t -> t -> t
(** The paper's [−] operator: [minus a b = plus a (negate b)]. *)

val negate : t -> t
val scale : int -> t -> t
val apply_sign : Sign.t -> t -> t

val union : t -> t -> t
(** Plain bag union of the positive parts (the paper's [∪]). *)

val cardinality : t -> int
(** Total number of signed tuple copies, [Σ |count|] — what the transfer
    cost model charges for. *)

val net_cardinality : t -> int
(** [Σ count]; for a non-negative bag this is the number of tuples. *)

val distinct_cardinality : t -> int
(** Number of distinct tuples; O(1) — usable for sizing hash tables. *)

val has_negative : t -> bool
(** True when some tuple has net negative count — a materialized view in
    such a state witnesses an over-deletion anomaly. O(1): every
    operation keeps the number of negative entries current. *)

val is_set : t -> bool
(** Every count is exactly 1 (ECAK views with full key coverage are sets). *)

val exists : (Tuple.t -> int -> bool) -> t -> bool
(** Whether some entry satisfies the predicate, stopping at the first
    that does; entries are tried in unspecified (hash) order. *)

val equal : t -> t -> bool
(** Rejects in O(1) when the sizes or fingerprints differ; otherwise
    O(distinct tuples). *)

val equal_since : t * t -> t -> t -> bool
(** [equal_since (a0, b0) a b = equal a b], provided [equal a0 b0] holds;
    the result is unspecified otherwise. Meant for [a] and [b] built from
    [a0] and [b0] by a few {!add}s or {!remove}s: only the tuples either
    side changed are compared, found by a diff that skips whatever each
    bag still shares with its ancestor, so a few adds or removes cost
    O(changes · depth). A diff that grows past about a quarter of the
    trie falls back to {!equal}, so the call never costs much more than
    one full comparison. *)

val fingerprint : t -> int
(** An order-independent hash of the bag's contents: [equal a b] implies
    [fingerprint a = fingerprint b], whatever path built each bag. The
    converse does not hold, so a matching fingerprint only nominates a
    candidate for {!equal}. O(1): every operation keeps it current. *)

val compare : t -> t -> int
val mem : Tuple.t -> t -> bool

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Enumeration order is unspecified (hash order); see the module note. *)

val iter : (Tuple.t -> int -> unit) -> t -> unit
(** Like {!fold}, enumeration order is unspecified (hash order). *)

val filter : (Tuple.t -> bool) -> t -> t
val map_tuples : (Tuple.t -> Tuple.t) -> t -> t

val to_list : t -> (Sign.t * Tuple.t) list
(** Expansion into one signed entry per copy, in tuple order. *)

val to_counted_list : t -> (Tuple.t * int) list
(** One entry per distinct tuple with its net count, in tuple order. *)

val byte_size : t -> int
(** [Σ |count| · byte_size tuple]; used for measured transfer costs. *)

val dedup_to_set : t -> t
(** Keep one copy of every positively counted tuple; ECAK's duplicate
    elimination. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** The trie under the bag, for the test suite's checks of {!equal_since}'s
    diff; no other caller. *)
module Private : sig
  type node
  (** A hash's leaf or collision bucket in a bag's trie, or its absence. *)

  val node : t -> int -> node
  (** The node of hash [h] in the bag. *)

  val changed : t -> t -> (int * node) list * int
  (** [changed a b] is the diff {!equal_since} takes: every hash whose
      node in [a] and in [b] are not the same object, in descending
      order, each with its node in [b]; and the number of trie nodes the
      diff visited. *)

  val depth : t -> int
  (** Branches on the longest path from the trie's root to a leaf. *)
end
