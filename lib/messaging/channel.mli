(** A message channel with an optional fault profile.

    By default delivery is exactly-once FIFO — the model the paper
    assumes ("messages are delivered in order and are processed in
    order"). A {!Fault.profile} makes the channel lossy, duplicating,
    delaying and/or reordering (seeded, reproducible); the {!Reliable}
    sublayer can then be layered on top to win the paper's model back.

    Channels carry a logical clock, advanced by {!tick} from the
    simulation scheduler: a transmission with a sampled delay of [d]
    ticks becomes deliverable [d] ticks after it was sent. Fault-free
    channels ignore the clock.

    Channels also meter traffic: message and byte counters feed the M and
    B metrics of the performance study. They count {e physical}
    transmissions — duplicates injected by the profile and retransmits
    from the reliability sublayer included — so the same counters measure
    the wire overhead of reliability.

    Costs. A fault-free channel is a FIFO queue: O(1) amortized send and
    receive. A faulty channel keeps its delayed transmissions in a wheel
    of [delay + 1] send-ordered buckets, one per ready tick, and its
    deliverable ones in a {!Relational.Fenwick.Slots} sequence in
    delivery order — by ready tick, then by send order: a tick appends
    the bucket that ripens, a send with delay 0 appends at once.
    {!has_ready} is then O(1); a receive (the deliverable count it draws
    a reordered pick over, then removal of the picked rank) and an append
    are O(log n) amortized in the deliverable messages, so a send is
    O(log n) at most and a tick O(log n) per message it ripens. Apart
    from a receive's option, none allocates once the buffers have grown
    to the traffic.
    {!pending} and {!is_empty} are O(1) on either kind. *)

type t

val create : ?fault:Fault.profile -> ?seed:int -> string -> t
(** Exactly-once FIFO by default ([Fault.none]); faults and their
    randomness are controlled entirely by [fault] and [seed]. *)

val send : ?size:int -> t -> Message.t -> unit
(** Put one transmission on the wire (two if the profile duplicates it);
    each is metered, then possibly dropped, then delayed per the
    profile. [size] is the message's {!Message.byte_size}, when the
    caller has it already (a retransmitted frame); it is computed
    otherwise. *)

val receive : t -> Message.t option
(** Dequeue among the currently deliverable messages: the oldest one, or
    a uniformly random one when the profile reorders. [None] when nothing
    is deliverable — the channel may still hold delayed messages (see
    {!is_empty} vs {!has_ready}). *)

val has_ready : t -> bool
(** A receive would succeed now. *)

val is_empty : t -> bool
(** Nothing pending at all, delayed messages included. *)

val pending : t -> int
(** Transmissions in flight, delayed ones included; O(1). *)

val tick : t -> unit
(** Advance the channel clock one tick (delayed messages ripen). *)

val delay_bound : t -> int
(** The most ticks a transmission waits before it is deliverable: the
    profile's [delay], 0 on a fault-free channel. *)

val messages_sent : t -> int
(** Total physical transmissions ever sent (delivered, pending, dropped
    and duplicated alike). *)

val bytes_sent : t -> int

val dropped : t -> int
(** Transmissions lost to the fault profile. *)

val duplicated : t -> int
(** Extra copies injected by the fault profile. *)

val pp : Format.formatter -> t -> unit
