(** Single-tuple base-relation updates, the unit of source→warehouse
    notification.

    Modifications are modelled as a deletion followed by an insertion, as
    in the paper. The [seq] field is the source-assigned sequence number;
    it identifies the update across the four events it triggers
    ([S_up], [W_up], [S_qu], [W_ans]). *)

type kind =
  | Insert
  | Delete

type t = {
  seq : int;
  kind : kind;
  rel : string;
  tuple : Tuple.t;
}

val insert : ?seq:int -> string -> Tuple.t -> t
val delete : ?seq:int -> string -> Tuple.t -> t
val with_seq : int -> t -> t

val sign : t -> Sign.t
(** [Pos] for inserts, [Neg] for deletes — the sign substituted into query
    terms by [Q⟨U⟩]. *)

val byte_size : t -> int
(** Notification message size (charged identically for all algorithms, so
    excluded from the paper's B metric; tracked for completeness). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Source schema changes (DDL), flowing through the engine's event loop
    as first-class notifications next to tuple updates. [Add_column]
    appends the column at the end of the relation (existing tuples are
    backfilled with [default]); [Drop_column] removes an existing column
    and projects it out of every tuple; [Key_change] replaces the declared
    key (the empty list drops it). The mechanics of applying a [ddl] to
    schemas, tuples, databases and views live in {!Evolve}. *)
type ddl =
  | Add_column of {
      rel : string;
      col : string;
      ty : Value.ty;
      default : Value.t;
    }
  | Drop_column of {
      rel : string;
      col : string;
    }
  | Key_change of {
      rel : string;
      key : string list;
    }

val ddl_rel : ddl -> string
val ddl_byte_size : ddl -> int
val ddl_to_string : ddl -> string
val pp_ddl : Format.formatter -> ddl -> unit
