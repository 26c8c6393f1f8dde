(** Queries (Equation 4.2 of the paper): signed sums of terms,
    [Q = Σᵢ Tᵢ].

    Queries are what the warehouse ships to the source; compensating
    queries subtract substituted copies of pending queries, which shows up
    here as term negation. *)

type t = Term.t list

val empty : t
val is_empty : t -> bool

val of_view : View.t -> t
(** The full view definition as a query — what RV sends to recompute. *)

val of_terms : Term.t list -> t
val terms : t -> Term.t list

val negate : t -> t
val plus : t -> t -> t

val subst : t -> Update.t -> t
(** The paper's [Q⟨U⟩]: substitute [U]'s signed tuple into every term;
    terms that already substitute [U]'s relation, or that never mention it,
    vanish. *)

val view_delta : View.t -> Update.t -> t
(** [V⟨U⟩] — the incremental-maintenance query of Algorithm 5.1. *)

val split_local : t -> t * t
(** [(local, remote)]: terms whose slots are all literal tuples need no
    base data and are evaluated at the warehouse; the rest go to the
    source. *)

val simplify : t -> t
(** Cancel [T]/[−T] pairs. Sound because queries are signed sums
    ([T + (−T) = 0] under ℤ-counted bag semantics); saves both transfer
    and source I/O on deeply compensated queries. *)

val base_relations : t -> string list
val term_count : t -> int

val byte_size : t -> int
(** Approximate wire size of the query message. *)

val equal : t -> t -> bool

val signature : t -> int
(** The skeleton digest: an order-insensitive combine of
    {!Term.signature}, which leaves projections out. Queries that differ
    only in the columns their terms keep, or only in term order, share a
    signature. A digest — candidates must be confirmed with {!equal} or
    {!widen} before sharing. *)

type widenings
(** A memo of projection widenings, owned by one warehouse: per
    (shipped, rider) projection pair, compared by physical identity, the
    widened projection and the rider's column map ({!Memo}). *)

val widenings : unit -> widenings
(** An empty memo. *)

val widen : widenings -> shipped:t -> t -> (t * int array) option
(** [widen memo ~shipped q] lets one evaluation answer both [shipped]
    and [q] when they pair term by term under {!Term.skeleton_equal} and
    each keeps one projection in every term. The result is [shipped]
    with its projection extended by [q]'s columns it lacks (in [q]'s
    order; [shipped] itself when none is lacking), and the position of
    each of [q]'s columns in that projection: projecting the widened
    answer through those positions gives [q]'s answer, and its prefix
    [shipped]'s. [None] otherwise — in particular for queries whose
    terms keep different columns (compound views' parts), which can
    only be shared when {!equal}.

    The widened projection and column map of a (shipped, rider)
    projection pair are built once, in [memo], and shared: every widened
    query of the pair carries the one list, so the next rider finds it
    by physical identity. The result does not depend on what [memo]
    holds. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
