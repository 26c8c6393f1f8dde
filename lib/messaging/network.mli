(** The two unidirectional channels connecting one source and the
    warehouse, plus the transport policy above them.

    By default ([Fault.none], direct transport) both directions are
    exactly-once FIFO — together with atomic event processing at both
    sites, all the paper requires of the transport. A fault profile makes
    both directions faulty; [~reliable:true] additionally runs the
    {!Reliable} sublayer over them, so endpoints again observe
    exactly-once FIFO streams while the wire carries the protocol's
    retransmissions and acks. *)

type t

type direction = Reliable.dir =
  | To_warehouse
  | To_source

val create :
  ?name:string ->
  ?fault:Fault.profile ->
  ?seed:int ->
  ?reliable:bool ->
  unit ->
  t
(** [fault] applies to both directions (the reverse channel derives its
    RNG seed from [seed + 1]); [reliable] runs the {!Reliable} sublayer
    with its default retransmission timer. [name] labels the source end
    of the channel pair ("[name]->warehouse" / "warehouse->[name]",
    default ["source"]) so a site-graph with several sources gets
    distinguishable wires. *)


val send : t -> direction -> Message.t -> unit
val receive : t -> direction -> Message.t option

val can_receive : t -> direction -> bool
(** A receive in this direction would deliver a message now. Distinct
    from channel emptiness: messages may be in flight but delayed, or
    buffered awaiting in-order release. *)

val tick : t -> unit
(** Advance the transport clock one tick: delayed transmissions ripen and
    overdue frames retransmit. The runner calls this when no simulation
    event is enabled, keeping runs deterministic. *)

val idle : t -> bool
(** Nothing in flight, unacknowledged, or undelivered anywhere — ticking
    further would change nothing. *)

val load : t -> int
(** Undelivered wire frames on the edge, both directions — in-flight,
    delayed, and awaiting in-order release. The cheap per-edge load
    signal the backpressure and fairness scheduling policies weigh; O(1)
    (see {!Channel.pending}). *)

val reliability : t -> Reliable.stats option
(** Protocol counters when the reliable sublayer is active. *)

val total_messages : t -> int
(** Physical transmissions in both directions — duplicates, retransmits
    and acks included. *)

val total_bytes : t -> int
val total_dropped : t -> int
val total_duplicated : t -> int
