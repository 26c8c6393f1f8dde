(** Query terms (Equation 4.1 of the paper):
    [T = π_proj (σ_cond (~r1 × ~r2 × … × ~rn))]
    where each [~ri] is either the base relation [ri] or a signed updated
    tuple of [ri].

    A term additionally carries an outer sign: compensating queries are
    formed by {e subtracting} substituted terms, which negates them. *)

type slot =
  | Base of Schema.t  (** the base relation itself, read at the source *)
  | Lit of Schema.t * Sign.t * Tuple.t
      (** an updated tuple substituted for its relation *)

type t = {
  sign : Sign.t;  (** outer sign of the whole term *)
  proj : Attr.t list;
  cond : Predicate.t;
  slots : slot list;
}

val slot_schema : slot -> Schema.t

val of_view : View.t -> t
(** The view definition itself as a single positive term. *)

val negate : t -> t

val base_relations : t -> string list
(** Names of relations still read at the source. *)

val is_all_literals : t -> bool
(** No base-relation slot remains; such a term can be evaluated locally at
    the warehouse ("all data needed is already at the warehouse",
    Appendix D). *)

val mentions_base : t -> string -> bool

val subst : t -> Update.t -> t option
(** [subst t u] is the paper's [T⟨U⟩]: [None] when [u]'s relation is already
    substituted (the term vanishes) or not mentioned; otherwise the term
    with [u]'s signed tuple in place of its relation. *)

val byte_size : t -> int
(** Approximate wire size of the term inside a query message. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}. Discriminates on sign and substituted
    literal tuples, so the delta terms T⟨U⟩ of one view hash apart. *)

val skeleton_equal : t -> t -> bool
(** {!equal} up to projection: same sign, slot sources (base relations
    and substituted literals with their signs) and condition. *)

val same_shape : t -> t -> bool
(** Physically the same condition and slot schemas, with literal tuples
    in the same slots: what the terms substituted from one view part
    share, tested without a structural compare. Projections, literal
    values and signs aside. *)

val signature : t -> int
(** The skeleton signature used by shared-delta (MQO) maintenance:
    consistent with {!skeleton_equal}, so it ignores the projection —
    terms that differ only in the columns they keep agree, and one
    evaluation projecting both column lists answers both. A digest:
    sharers confirm candidate matches with {!skeleton_equal}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
