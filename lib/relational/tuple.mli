(** Tuples: fixed-arity arrays of {!Value.t}.

    Tuples are the unit of update notification ([insert(r, t)] /
    [delete(r, t)]), of bag membership, and of query answers. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list

val ints : int list -> t
(** [ints [1; 2]] is the tuple [[1,2]] — the paper's examples are all over
    integer relations, so this constructor keeps tests and examples terse. *)

val arity : t -> int
val get : t -> int -> Value.t

val compare : t -> t -> int
(** Lexicographic by {!Value.compare}; shorter tuples sort first. *)

val equal : t -> t -> bool
val hash : t -> int

val byte_size : t -> int
(** Total {!Value.byte_size} of the components; used by transfer costing. *)

val concat : t -> t -> t
val project : int array -> t -> t

val project_concat : int array -> t -> t -> t
(** [project_concat ps a b = project ps (concat a b)], without building
    the concatenation. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
