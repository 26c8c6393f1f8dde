(** Live flags over a fixed row of slots with rank/select: a Fenwick
    (binary indexed) tree over one bit per slot.

    Flipping a slot and finding the [j]-th live slot are O(log n); the
    live count is O(1). No operation allocates. The scheduler keeps one
    over its fixed event order; {!Slots} builds an append-only sequence
    on it, which the faulty channel keeps its deliverable frames in. *)

type t

val create : int -> t
(** [create n] — [n] slots, all dead.
    @raise Invalid_argument if [n < 0]. *)

val count : t -> int
(** The number of live slots; O(1). *)

val mem : t -> int -> bool
(** Whether slot [i] is live; O(1). *)

val set : t -> int -> bool -> unit
(** [set t i live] marks slot [i] live or dead; O(log n), and O(1) when
    the flag does not change. *)

val select : t -> int -> int
(** [select t j] — the slot of the [j]-th live slot (0-based, in slot
    order); O(log n).
    @raise Invalid_argument unless [0 <= j < count t]. *)

(** An append-only sequence with removal by live rank: elements keep
    their push order, and the [j]-th remaining one can be taken out in
    O(log n). Removed slots are reclaimed by compacting the array when a
    push finds it full, so a push is O(log n) amortized; memory is
    allocated only when the live elements outgrow half the array. *)
module Slots : sig
  type 'a t

  val create : 'a -> 'a t
  (** An empty sequence; the given value fills the slots that hold no
      element, so removed elements are not retained. *)

  val length : 'a t -> int
  (** Elements remaining; O(1). *)

  val push : 'a t -> 'a -> unit
  (** Append at the end. *)

  val take : 'a t -> int -> 'a
  (** [take s j] removes and returns the [j]-th remaining element
      (0-based, push order).
      @raise Invalid_argument unless [0 <= j < length s]. *)
end
