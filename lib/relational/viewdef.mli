(** View definitions beyond a single SPJ block: signed combinations of
    SPJ views — bag [UNION] and bag [EXCEPT] — the "more complex
    relational algebra expressions" extension of the paper's Section 7.

    Semantics are the signed-bag ones used throughout: a compound view's
    contents are [Σᵢ signᵢ · Vᵢ], and because the delta operator is linear
    ([V[D+U] − V[D] = Σᵢ signᵢ · Vᵢ⟨U⟩[D+U]]), every compensating
    algorithm generalizes unchanged — the maintenance query of a compound
    view is just a longer signed sum of terms. A difference view can hold
    net-negative counts when the minuend does not cover the subtrahend;
    the consistency machinery treats such states like any other bag.

    Key-based streamlining (ECAK, ECAL's local deletes) remains restricted
    to {e simple} views, where the projected key identifies derivations. *)

type t = private {
  name : string;
  parts : (Sign.t * View.t) list;  (** at least one; equal output arities *)
}

exception Viewdef_error of string

val make : name:string -> (Sign.t * View.t) list -> t
(** @raise Viewdef_error on empty parts or mixed output arities. *)

val simple : View.t -> t
(** A single positive SPJ block (the paper's core case). *)

val as_simple : t -> View.t option
val is_simple : t -> bool

val union : ?name:string -> t -> t -> t
(** Bag union (additive, per the paper's duplicate-retention semantics). *)

val diff : ?name:string -> t -> t -> t
(** Signed bag difference: [a + (−b)]. *)

val full_query : t -> Query.t
(** The whole definition as a query — what RV ships to recompute. *)

val delta : t -> Update.t -> Query.t
(** [V⟨U⟩] generalized: [Σᵢ signᵢ · Vᵢ⟨U⟩]. *)

val mentions : t -> string -> bool
val relation_names : t -> string list
val output_attr_names : t -> string list

val eval : Db.t -> t -> Bag.t
(** [V[ss]] for compound views. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
