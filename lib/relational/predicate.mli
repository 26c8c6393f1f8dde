(** Selection conditions for SPJ views: boolean combinations of comparisons
    between attribute references and constants.

    Equality conjuncts between attributes of different base relations are
    recognised by the evaluator as join conditions and executed with hash
    joins; everything else is applied as a residual filter. *)

type operand =
  | Col of Attr.t
  | Const of Value.t

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t

val eq : operand -> operand -> t
val col : string -> operand
(** [col "r1.X"] — parses qualification from the string. *)

val int : int -> operand

val conj : t list -> t
(** Conjunction of a list ([True] when empty). *)

val conjuncts : t -> t list
(** Flattens nested [And]s; drops [True]. *)

val cmp_holds : cmp -> int -> bool
(** [cmp_holds c n] interprets comparator [c] against a [compare] result. *)

val attrs : t -> Attr.t list
(** All attribute references, with duplicates. *)

val eval : (Attr.t -> Value.t) -> t -> bool
(** [eval lookup p] evaluates [p] under an attribute environment.
    The lookup function must be total for attributes of [p]. *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
