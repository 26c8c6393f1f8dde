(** Index descriptors for the source's base relations.

    Scenario 1 of Appendix D assumes clustering indexes on the join
    attributes (plus one non-clustering index), all memory-resident: index
    traversal is free, only tuple fetches cost I/Os. *)

type t = private {
  rel : string;
  attr : string;
  clustered : bool;
}

val clustered : string -> string -> t
val unclustered : string -> string -> t

val probe_io : t -> block:Block.t -> matches:int -> int
(** I/Os to fetch [matches] tuples for one probe value: [⌈matches/K⌉] when
    clustered (tuples are contiguous), [matches] when unclustered. *)

val pp : Format.formatter -> t -> unit
