(** Messages exchanged between source and warehouse.

    Three kinds, mirroring Figure 1.1 of the paper: update notifications
    (source → warehouse), queries (warehouse → source) and answers
    (source → warehouse). Query ids are assigned by the warehouse and echo
    back in answers; with FIFO channels this realizes the paper's trigger
    correspondence between [W_up]/[S_qu]/[W_ans] events. *)

type t =
  | Update_note of Relational.Update.t
  | Batch_note of Relational.Update.t list
      (** several source updates executed atomically and notified in one
          message — the batched-update extension of Section 7 *)
  | Ddl_note of Relational.Update.ddl
      (** a source schema change, notified mid-stream like any update:
          the warehouse must rewrite and re-initialize every view that
          reads the changed relation *)
  | Query of {
      id : int;
      query : Relational.Query.t;
    }
  | Answer of {
      id : int;
      answer : Relational.Bag.t;
      cost : Storage.Cost.t;  (** what the source spent producing it *)
    }
  | Data of {
      seq : int;
      payload : t;
      ack : (int * (int * int) list) option;
    }
      (** a {!Reliable} protocol frame: the payload message carried under
          a per-stream sequence number, with the sender's due [Ack] of the
          reverse stream as [(cum, sacks)], if any. Never reaches the
          warehouse or source — the sublayer unwraps it. *)
  | Ack of {
      cum : int;
      sacks : (int * int) list;
    }
      (** a {!Reliable} acknowledgement: every [Data] frame with
          [seq <= cum] has been received in order, and so has every seq
          in one of the [sacks] — disjoint, inclusive [(lo, hi)] runs
          above [cum], highest first, that the receiver holds out of
          order. *)

val filler : t
(** An acknowledgement of nothing, which no receiver sends: the one
    value that fills the empty slots of the channel's and the link's
    rings. *)

val byte_size : t -> int
(** Wire size: an [Ack] is an 8-byte header plus 16 bytes per run, a
    [Data] frame an 8-byte header plus its payload and its [Ack]. *)

val kind_name : t -> string
val pp : Format.formatter -> t -> unit
