(** Attribute references, optionally qualified by a relation name
    ([r1.X] or just [X]).

    View definitions and predicates reference attributes; unqualified
    references are resolved against the view's base relations when the view
    is validated, and are an error when ambiguous. *)

type t = private {
  rel : string option;
  name : string;
}

val qualified : string -> string -> t
val unqualified : string -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val equal_list : t list -> t list -> bool
(** [List.equal equal], true at once on physically equal lists — the
    projection compare of terms that share their view's list. *)

val to_string : t -> string

val of_string : string -> t
(** [of_string "r1.X"] is [qualified "r1" "X"]; [of_string "X"] is
    [unqualified "X"]. *)

val matches : rel:string -> name:string -> t -> bool
(** [matches ~rel ~name a] holds when [a] can denote column [name] of
    relation [rel] (qualified match, or unqualified name match). *)
