(** A persistent FIFO queue as a front/back list pair — O(1) amortized
    push/pop, versus the O(n) of [xs @ [x]] appends. Used for message
    channels and for ECA's unanswered-query sequence, both of which grow
    with the run and made list appends quadratic over a workload. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> 'a -> 'a t
(** Enqueue at the back. *)

val pop : 'a t -> ('a * 'a t) option
(** Dequeue the oldest element. *)

val peek : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Oldest first. *)

val remove_first : ('a -> bool) -> 'a t -> 'a option * 'a t
(** The oldest element satisfying [p], and the queue without it (the
    others in order): O(1) amortized when that element is the head, O(n)
    otherwise. [(None, t)] when no element satisfies [p]. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest-to-newest fold without materializing [to_list]. *)
