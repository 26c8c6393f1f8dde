(** The reliability sublayer: exactly-once FIFO streams over faulty
    channels.

    The paper's algorithms are only correct under reliable in-order
    source↔warehouse delivery (the fault-injection tests show ECA
    converging to wrong views without it). This sublayer restores that
    model over a channel pair with an arbitrary {!Fault.profile}, with
    the standard machinery:

    - every payload message is wrapped in a [Data] frame under a
      per-stream sequence number;
    - receivers hold out-of-order frames in a reorder buffer, discard
      duplicate sequence numbers, and release messages strictly in
      sequence order — the endpoint-visible stream is exactly-once FIFO;
    - receivers answer every arriving data burst with a cumulative [Ack]
      (re-acking duplicates, so a sender whose ack was lost still makes
      progress); acks travel over the reverse faulty channel;
    - senders keep unacknowledged frames and retransmit any that have
      waited [timeout] clock ticks since their last transmission.

    The clock is the channels' logical tick, advanced by {!tick} from the
    simulation scheduler when no other event is enabled — runs stay
    deterministic and seed-reproducible. Retransmissions and acks go
    through {!Channel.send}, so channel byte/message counters price the
    protocol's wire overhead.

    Costs. Every operation first pumps the link: it drains both channels
    of their deliverable frames. The pump is skipped unless the link has
    sent a frame (data, retransmission or ack) or ticked since the last
    one began — otherwise both channels are known to hold nothing
    deliverable, and the skipped pump would have drawn no randomness, so
    seeded runs are unchanged. Endpoint state is mutable and O(1) per
    frame, in power-of-two rings indexed by [seq land (length - 1)] that
    double when a window outgrows them: the sender's unacknowledged
    frames with their last and first transmission ticks (a
    retransmission restamps its slot in place; a cumulative ack retires
    a prefix), and the receiver's out-of-order frames; plus a ready
    queue. A {!tick} scans each sender's unacknowledged ticks once. *)

type dir =
  | To_warehouse
  | To_source

type stats = {
  mutable retransmits : int;
  mutable dups_dropped : int;
      (** data frames discarded at the receiver as already seen — channel
          duplicates and spurious retransmissions alike *)
  mutable acks_sent : int;
  mutable delivered : int;  (** payload messages released in order *)
  mutable latency_total : int;
      (** summed ticks from first transmission to in-order release *)
  mutable latency_max : int;
}

type t

val create :
  ?timeout:int -> to_warehouse:Channel.t -> to_source:Channel.t -> unit -> t
(** Layer a duplex reliable link over the two (typically faulty)
    channels. [timeout] (default 3) is the retransmission timer in clock
    ticks; the scheduler only ticks when nothing else can run, so small
    values are right.
    @raise Invalid_argument if [timeout < 1]. *)

val send : t -> dir -> Message.t -> unit
val receive : t -> dir -> Message.t option
(** The next in-order payload message addressed to [dir]'s receiver. *)

val has_ready : t -> dir -> bool
val tick : t -> unit
(** Advance the clock: ripen channel delays, retransmit overdue frames,
    process whatever arrives. *)

val idle : t -> bool
(** Nothing in flight, unacknowledged, buffered, or undelivered — ticking
    further would change nothing. *)

val stats : t -> stats
val mean_latency : t -> float
val pp : Format.formatter -> t -> unit
