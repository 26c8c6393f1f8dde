(** A fixed-capacity ring buffer: O(1) push, oldest entries overwritten
    (and counted) once the capacity is reached. Backs the span collector
    so observability memory stays bounded no matter how long a run is. *)

type 'a t

val create : int -> 'a t
(** @raise Invalid_argument when the capacity is not positive. *)

val dropped : 'a t -> int
(** Entries overwritten because the ring was full. *)

val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Oldest retained entry first. *)
