(** The page model of the source's disk: [K] tuples per physical block
    (Table 1 of the paper, default K = 20).

    Appendix D charges one I/O per block read; [I = ⌈C/K⌉] is the cost of
    scanning an entire base relation of cardinality [C]. *)

type t = private {
  tuples_per_block : int;
}

exception Invalid_block_model of string

val make : tuples_per_block:int -> t
val default : t
(** The paper's default, K = 20. *)

val blocks_for : t -> tuples:int -> int
(** [⌈tuples / K⌉], 0 for non-positive counts. *)

val pp : Format.formatter -> t -> unit
