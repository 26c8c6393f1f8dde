(** A small memo owned by one user — an ECA instance's guard templates,
    a warehouse's widened projections. Entries are found by a test the
    owner supplies, typically the physical identity of the parts that
    every term of one view part shares, so a repeated skeleton costs no
    hash and no structural compare. Few skeletons recur per owner: at
    most 64 entries are kept, and a full memo restarts from the new
    entry. *)

type 'a t

val create : unit -> 'a t
(** An empty memo. *)

val find_or_add : 'a t -> fits:('a -> bool) -> (unit -> 'a) -> 'a
(** [find_or_add m ~fits build] is the newest entry of [m] that [fits],
    or else [build ()], kept as the newest entry. *)
