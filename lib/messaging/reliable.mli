(** The reliability sublayer: exactly-once FIFO streams over faulty
    channels, by selective repeat.

    The paper's algorithms are only correct under reliable in-order
    source↔warehouse delivery (the fault-injection tests show ECA
    converging to wrong views without it). This sublayer restores that
    model over a channel pair with an arbitrary {!Fault.profile}:

    - every payload message gets a per-stream sequence number and leaves
      in a [Data] frame, which carries a run of consecutive payloads;
    - receivers hold out-of-order payloads in a reorder buffer and never
      discard one, drop duplicates, and release messages strictly in
      sequence order — the endpoint-visible stream is exactly-once FIFO;
    - receivers owe every arriving data burst an ack: the cumulative
      [cum] and the runs of seqs held above it (re-acking duplicates, so
      a sender whose ack was lost still makes progress). It rides on the
      next data frame the receiver sends back, or leaves alone as an
      [Ack] at the next {!tick}; acks travel over the reverse faulty
      channel;
    - senders retransmit each unacknowledged payload that has waited the
      link's timeout since its last transmission and lies in no run the
      latest ack reported: only the holes are resent, each maximal run
      of consecutive overdue holes as one frame. A resent frame carries
      its sender's ack of the reverse stream only while one is due: an
      ack changes only when data arrives, which makes it due, so one
      that is not due has already left.

    Send rule (Nagle's, RFC 896, on the logical clock). {!send}
    transmits a payload at once, in a frame of its own, when nothing its
    end has transmitted is still unacknowledged, or when the link's
    channels cannot delay a frame (both {!Channel.delay_bound}s 0, a
    timeout of 1). Otherwise the payload is held behind the
    unacknowledged frame, and every held payload of the stream leaves as
    one frame at the first of: the pump in which an ack retires every
    transmitted frame (the run carries the ack that pump made due), and
    the next {!tick}, before its due acks leave alone (so the run carries
    the due ack). On a delay-free link every frame that is not lost is
    delivered the moment it is sent, so holding one there only adds
    latency, and the frame sequence stays the one a frame per payload
    gives.

    The clock is the channels' logical tick, advanced by {!tick} from the
    simulation scheduler when no other event is enabled — runs stay
    deterministic and seed-reproducible. Retransmissions and acks go
    through {!Channel.send}, so channel byte/message counters price the
    protocol's wire overhead.

    Timer. The timeout is the longest round trip an unlost frame can
    take: one channel's {!Channel.delay_bound}, plus one tick, plus the
    other's — the same sum from either end, [2·delay + 1] over a
    {!Network} pair of one profile (5 ticks under [chaos], 1 on
    delay-free channels). The tick order makes the bound exact. A frame
    sent at tick [t] with delay [d] ripens at tick [t + d] and is
    drained by the pump that follows, which makes an ack due. That ack
    leaves at tick [t + d + 1] at the latest, since a {!tick} sends due
    acks first; with delay [d'] it ripens at tick [t + d + 1 + d'] and
    is drained by that tick's first pump, before any frame is judged
    overdue. So only a lost transmission can leave a frame overdue, and
    a link whose channels drop nothing never resends. Holding payloads
    leaves this argument as it is: a payload's timer starts when its
    frame is transmitted, not when it is sent, and a pump that releases
    held payloads pumps again, so a run the channel does not delay is
    drained at the tick it left. The argument holds frame by frame.
    Delivery latency is counted from {!send}, and so includes the time a
    payload was held.

    Costs. Every operation first pumps the link — drains both channels —
    unless nothing was sent and no tick passed since the last pump began,
    when it would find nothing and draw no randomness. Payloads sit in
    power-of-two rings indexed by [seq land (length - 1)], O(1) per
    payload at each end. Run lists are persistent and shared by
    successive acks; an ack costs a walk down to its first run that
    differs from the last one's. A {!tick} walks each sender's
    transmitted, unacknowledged range once. *)

type dir =
  | To_warehouse
  | To_source

type stats = {
  mutable retransmits : int;  (** resent frames, each a run of holes *)
  mutable dups_dropped : int;
      (** data frames discarded at the receiver because every payload in
          them had already been seen — channel duplicates and spurious
          retransmissions alike *)
  mutable acks_sent : int;
  mutable delivered : int;  (** payload messages released in order *)
  mutable latency_total : int;
      (** summed ticks from {!send} to in-order release *)
  mutable latency_max : int;
}

type t

val create : to_warehouse:Channel.t -> to_source:Channel.t -> t
(** Layer a duplex reliable link over the two (typically faulty)
    channels; each end's retransmission timer is derived from their
    delay bounds (see Timer above). *)

val send : t -> dir -> Message.t -> unit
(** Number the payload and transmit it at once or hold it (see Send rule
    above). *)

val receive : t -> dir -> Message.t option
(** The next in-order payload message addressed to [dir]'s receiver. *)

val has_ready : t -> dir -> bool
val tick : t -> unit
(** Advance the clock: ripen channel delays, transmit the held payloads
    with the due acks, send the due acks that no data frame took, process
    whatever arrives, then retransmit the runs still overdue and process
    again. *)

val idle : t -> bool
(** Nothing in flight, held, unacknowledged, buffered, or undelivered —
    ticking further would at most send an ack of what is already
    acknowledged. *)

val held : t -> int
(** Payloads sent but held behind an unacknowledged frame, both
    directions: in flight for the scheduler's load, though no wire
    carries them yet. *)

val stats : t -> stats
