(** The reliability sublayer: exactly-once FIFO streams over faulty
    channels, by selective repeat.

    The paper's algorithms are only correct under reliable in-order
    source↔warehouse delivery (the fault-injection tests show ECA
    converging to wrong views without it). This sublayer restores that
    model over a channel pair with an arbitrary {!Fault.profile}:

    - every payload message is wrapped in a [Data] frame under a
      per-stream sequence number;
    - receivers hold out-of-order frames in a reorder buffer and never
      discard one, drop duplicates, and release messages strictly in
      sequence order — the endpoint-visible stream is exactly-once FIFO;
    - receivers owe every arriving data burst an ack: the cumulative
      [cum] and the runs of seqs held above it (re-acking duplicates, so
      a sender whose ack was lost still makes progress). It rides on the
      next data frame the receiver sends back, or leaves alone as an
      [Ack] at the next {!tick}; acks travel over the reverse faulty
      channel;
    - senders retransmit each unacknowledged frame that has waited
      [timeout] clock ticks since its last transmission and lies in no
      run the latest ack reported: only the holes are resent.

    The clock is the channels' logical tick, advanced by {!tick} from the
    simulation scheduler when no other event is enabled — runs stay
    deterministic and seed-reproducible. Retransmissions and acks go
    through {!Channel.send}, so channel byte/message counters price the
    protocol's wire overhead.

    Costs. Every operation first pumps the link — drains both channels —
    unless nothing was sent and no tick passed since the last pump began,
    when it would find nothing and draw no randomness. Frames sit in
    power-of-two rings indexed by [seq land (length - 1)], O(1) per frame
    at each end. Run lists are persistent and shared by successive acks;
    an ack costs a walk down to its first run that differs from the last
    one's. A {!tick} walks each sender's unacknowledged range once. *)

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
(** Advance the clock: ripen channel delays, send the due acks that no
    data frame took, process whatever arrives, then retransmit the
    frames still overdue and process again. *)

val idle : t -> bool
(** Nothing in flight, unacknowledged, buffered, or undelivered — ticking
    further would at most send an ack of what is already acknowledged. *)

val stats : t -> stats
