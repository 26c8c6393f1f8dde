(** Physical configuration of a source: which of Appendix D's two extreme
    scenarios applies, the page model, and the available indexes. *)

type mode =
  | Indexed_memory
      (** Scenario 1: relevant indexes exist and are memory-resident; the
          joined fragments of all relations fit in memory. *)
  | Limited_memory
      (** Scenario 2: no indexes; three free memory blocks drive a
          nested-loop join. *)

type t = private {
  mode : mode;
  block : Block.t;
  indexes : Index.t list;
  count_outer_reads : bool;
      (** The paper's Appendix D counts only inner-loop reads in Scenario 2
          nested loops; set this to also charge for reading outer-relation
          blocks (an ablation; default [false] = paper-exact). *)
  share_scans : bool;
      (** Multiple-term optimization: within one query, charge each full
          relation scan only once across terms. The paper assumes this is
          absent ("each term is evaluated independently") and conjectures
          ECA's I/O would improve with it — this flag quantifies that
          conjecture. Default [false] = paper-exact. *)
}

val make :
  ?mode:mode ->
  ?block:Block.t ->
  ?indexes:Index.t list ->
  ?count_outer_reads:bool ->
  ?share_scans:bool ->
  unit ->
  t

val index_on : t -> rel:string -> attr:string -> Index.t option
(** The best index on [(rel, attr)], preferring clustered. *)

val example6_indexes : Index.t list
(** The exact index set of Appendix D Scenario 1 for the r1/r2/r3 schema. *)

val pp : Format.formatter -> t -> unit
