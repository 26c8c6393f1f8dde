(** Tuple signs (Section 4.1 of the paper).

    Existing and inserted tuples carry [Pos]; deleted tuples carry [Neg].
    Signs propagate through relational operators: selection and projection
    preserve the sign, and the sign of a product tuple is the product of the
    signs of its components. *)

type t =
  | Pos  (** an existing or inserted tuple *)
  | Neg  (** a deleted tuple *)

val mult : t -> t -> t
(** [mult a b] is the sign of a product tuple built from components signed
    [a] and [b] (the [t1 × t2] table of Section 4.1). *)

val negate : t -> t
(** [negate s] flips the sign; used to form compensating query terms. *)

val to_int : t -> int
(** [to_int s] is [+1] or [-1]; multiplying replication counts by it folds
    the sign into a ℤ-counted bag. *)

val of_int : int -> t
(** [of_int n] is [Pos] when [n >= 0] and [Neg] otherwise. *)

val equal : t -> t -> bool
val to_string : t -> string
