(** Warehouse view definitions (Section 4):
    [V = π_proj (σ_cond (r1 × r2 × … × rn))].

    Any select-project-join expression can be brought into this form. The
    base relations must be distinct (as the paper assumes). Attribute
    references in [proj] and [cond] are resolved to fully qualified form at
    construction time; unqualified references that are ambiguous across the
    base relations are rejected. *)

type t = private {
  name : string;
  sources : Schema.t list;
  cond : Predicate.t;
  proj : Attr.t list;  (** fully qualified after construction *)
}

exception View_error of string

val make :
  ?name:string -> proj:Attr.t list -> cond:Predicate.t -> Schema.t list -> t
(** @raise View_error on duplicate relations, empty projection, or
    unresolvable/ambiguous attribute references. *)

val natural_join :
  ?name:string ->
  ?extra_cond:Predicate.t ->
  proj:Attr.t list ->
  Schema.t list ->
  t
(** [natural_join ~proj sources] equates every pair of same-named columns
    across distinct relations — the paper's [r1 ⋈ r2 ⋈ r3] — optionally
    conjoined with [extra_cond] (e.g. the Example-6 condition [W > Z]). *)

val relation_names : t -> string list
val source_schema : t -> string -> Schema.t option
val mentions : t -> string -> bool

val columns : t -> (string * string) list
(** All [(relation, column)] pairs of the underlying cross product, in slot
    order. *)

val proj_position : t -> Attr.t -> int option
(** Output position of a (qualified) attribute, if projected. *)

val key_positions : t -> string -> int list option
(** [key_positions v rel]: the output positions of [rel]'s declared key
    attributes, in key order, when [v] ranges over [rel], [rel] declares
    a key and [v] projects all of it; [None] otherwise. This is the one
    key-coverage test: deletions on [rel] are autonomously computable
    (ECA-Local, ECA-SM) exactly when it is [Some]. *)

val covers_all_keys : t -> bool
(** The view projects the declared key of {e every} base relation — the
    ECAK eligibility condition. *)

val output_attr_names : t -> string list
(** Display names for the output columns (qualified only when needed). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
