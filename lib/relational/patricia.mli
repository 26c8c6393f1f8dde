(** Big-endian Patricia tries over int keys (Okasaki and Gill, "Fast
    Mergeable Integer Maps", 1998): the trie under {!Bag}, keyed by tuple
    hash, and the trie under a {!Db} column index's Int keys, keyed by
    the value itself. Both share one copy of the bit logic.

    Left to right, a trie holds its keys in ascending signed order —
    [Int.compare]'s, which is {!Value.compare}'s on Int values. A trie's
    shape depends only on its key set, so equal key sets make equal
    shapes whatever built them. *)

(** The bag's trie: each tuple hash bound to its entries. *)
module Entries : sig
  type t =
    | Empty
    | Leaf of { k : int; t : Tuple.t; n : int }
        (** the one entry of hash [k], inline *)
    | Bucket of { k : int; es : (Tuple.t * int) list }
        (** two or more entries colliding on [k], the one last changed first *)
    | Branch of { pm : int; l : t; r : t }
        (** [pm]: the keys' shared bits above the branching bit, and that
            bit set *)

  val find : int -> t -> t
  (** The leaf or bucket of a key, or [Empty]. *)

  val update : int -> (t -> t) -> t -> t
  (** [update h f t] rebinds [h] to [f] of its leaf or bucket ([Empty]
      both ways stands for unbound) in one descent that copies the path.
      When [f] returns its argument, the result is [t] itself. *)

  val map_leaves : (t -> t) -> t -> t
  (** Every leaf and bucket replaced by [f] of it ([Empty] drops the key),
      in ascending key order; unchanged subtries are shared. *)

  val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (Tuple.t -> int -> unit) -> t -> unit
  val for_all : (Tuple.t -> int -> bool) -> t -> bool
  val exists : (Tuple.t -> int -> bool) -> t -> bool

  val fold_leaves : (int -> t -> 'a -> 'a) -> t -> 'a -> 'a
  (** [f key node] over the leaves and buckets, in ascending key order. *)

  val entries_equal : t -> t -> bool
  (** Two leaves, buckets or [Empty]s of one key hold the same entries. *)

  val equal : t -> t -> bool

  val changed : tick:(unit -> unit) -> t -> t -> (int * t) list -> (int * t) list
  (** [changed ~tick t1 t2 acc] prepends to [acc] the keys whose node
      differs physically between [t1] and [t2], each with its node in [t2]
      ([Empty] when unbound), in descending key order; physically shared
      subtries are skipped whole. [tick] is called once per node
      visited. *)
end

(** A column index's Int keys: each bound to a nonempty list, the empty
    list standing for unbound. *)
module Buckets : sig
  type 'a t

  val empty : 'a t

  val find : int -> 'a t -> 'a list
  (** The key's list, [[]] when unbound. *)

  val update : int -> ('a list -> 'a list) -> 'a t -> 'a t
  (** [update k f t] rebinds [k] to [f] of its list, in one descent. *)

  val fold : (int -> 'a list -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** In ascending key order. *)

  val map : ('a list -> 'a list) -> 'a t -> 'a t
  (** [f] must keep every list nonempty. *)

  val iter_range : int -> int -> (int -> 'a list -> unit) -> 'a t -> unit
  (** [iter_range lo hi f t] calls [f] on the keys from [lo] to [hi]
      inclusive, ascending, skipping every subtrie outside the range. *)
end
