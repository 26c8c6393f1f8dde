(** Run-level counters for the three cost factors of Section 6: messages
    (M), data transferred (B) and source I/O (IO) — plus the transport's
    delivery counters when faults or the reliability sublayer are in
    play. *)

type delivery = {
  ticks : int;  (** clock advances the scheduler had to insert *)
  retransmits : int;
      (** frames re-sent after a timeout, each a run of consecutive
          overdue payloads *)
  dups_dropped : int;
      (** data frames discarded at a receiver because every payload in
          them had already been seen — channel duplicates and spurious
          retransmissions alike *)
  acks : int;  (** cumulative acknowledgement frames sent *)
  msgs_dropped : int;  (** transmissions lost to the fault profile *)
  msgs_duplicated : int;  (** extra copies injected by the fault profile *)
  delivered : int;  (** payload messages released in order by {!Reliable} *)
  latency_total : int;
      (** summed ticks from the sender's send, which may hold the payload
          behind an unacknowledged frame, to in-order release *)
  latency_max : int;
  wire_messages : int;
      (** physical transmissions both ways: payloads, duplicates,
          retransmits and acks — the denominator of reliability's wire
          overhead *)
  wire_bytes : int;
}

type histogram = {
  buckets : int array;
      (** log2 buckets: index 0 holds value 0, index i holds
          [2^(i-1), 2^i); the last bucket absorbs the tail *)
  mutable samples : int;
  mutable sum : int;
  mutable hmax : int;
}

val hist_create : unit -> histogram
val hist_add : histogram -> int -> unit
val hist_mean : histogram -> float

val hist_quantile : histogram -> float -> int
(** Nearest-rank quantile of the recorded samples ([0.5] = p50, [0.99] =
    p99), resolved to the containing log2 bucket's upper bound and capped
    at the observed maximum; 0 on an empty histogram. Deterministic —
    derived from logical-clock counts only. *)

type staleness_gauge = {
  stale_samples : int;
  stale_max : int;
  stale_mean : float;
  stale_final : int;  (** staleness at end of run; 0 iff converged *)
  stale_quiesce_max : int;
      (** max staleness observed at quiescence probes — 0 is the paper's
          strong-consistency guarantee for the ECA family (Section 3.1) *)
}

type observe = {
  spans : int;  (** spans closed and recorded *)
  span_dropped : int;  (** lost to ring-buffer overflow *)
  span_forced : int;  (** force-closed at end of run (lost frames) *)
  gauges : int;
  compensations : int;  (** notifications offset against in-flight queries *)
  collect_installs : int;  (** COLLECT batches installed into views *)
  collect_depth_max : int;  (** peak answers parked in COLLECT *)
  uqs_residency : histogram;
      (** ticks each query spent in the unanswered-query set (ship to
          answer processed) *)
  edge_latency : (string * histogram) list;
      (** message transit ticks per source edge, site order *)
  staleness : (string * staleness_gauge) list;
      (** per view: ticks since the warehouse view last matched the
          centralized oracle *)
}

(** Shared-delta (MQO) maintenance counters (DESIGN.md §4h). *)
type shared = {
  shared_evaluated : int;
      (** shipped queries that gained at least one extra subscriber —
          each is a shared delta evaluated once instead of per view *)
  shared_hits : int;
      (** queries deduplicated away: maintenance work that was {e not}
          shipped or evaluated thanks to sharing *)
  shared_fanout : int;
      (** answer deliveries made through multi-subscriber gids *)
}

(** Scale-out counters (DESIGN.md §4i). *)
type scale = {
  inflight_max : int;
      (** peak undelivered wire frames observed on any single edge —
          what the {!Scheduler.policy.Bounded_inflight} bound caps *)
  coalesced_notes : int;
      (** update notifications that travelled inside a coalesced batch
          instead of as their own wire message *)
  coalesced_batches : int;  (** batch notes produced by coalescing *)
  active_max : int;
      (** peak number of simultaneously non-idle edges — the [active] of
          the O(active) event loop; far below N on sparse workloads *)
}

(** Self-maintenance counters of the ECA-SM rung (DESIGN.md §4j). *)
type selfmaint = {
  sm_self : int;
      (** updates answered from the view and the update tuple alone —
          key-deletes and FK-derived joins *)
  sm_aux : int;  (** updates answered by reading auxiliary views *)
  sm_fallback : int;
      (** updates that fell back to the compensating (ECA) path: remote
          classes, or arrivals while a compensation was pending *)
  sm_aux_views : int;  (** maintained auxiliary views at end of run *)
  sm_aux_tuples : int;  (** tuples across them at end of run *)
  sm_aux_bytes : int;  (** their value bytes at end of run *)
}

(** Schema-evolution and windowed-view counters (DESIGN.md §4k). *)
type evolution = {
  ddl_applied : int;  (** schema changes executed at the sources *)
  views_rebuilt : int;
      (** hosted instances replaced by online re-initialization *)
  refresh_queries : int;
      (** full-view queries shipped by those rebuilds *)
  stale_answers : int;
      (** queries the sources answered empty as schema-stale *)
  retired_answers : int;
      (** tombstone answers absorbed through retired routes *)
  win_pruned_terms : int;
      (** compensating-query terms pruned as out-of-window *)
  win_local_answers : int;
      (** queries answered empty locally because every term pruned *)
  win_aged_partitions : int;
      (** watermark advances, summed over the windowed views *)
}

type t = {
  updates : int;  (** source updates executed *)
  queries_sent : int;  (** query messages, warehouse → source *)
  answers_received : int;  (** answer messages, source → warehouse *)
  answer_tuples : int;
      (** signed tuple copies across all answers, counted per term before
          cross-term cancellation — the unit the paper prices at S bytes *)
  answer_bytes : int;  (** actual value bytes of the answers *)
  query_bytes : int;  (** wire size of query messages *)
  source_io : int;  (** I/Os charged by the source's planner *)
  steps : int;  (** simulation events executed *)
  delivery : delivery;  (** transport counters; {!no_delivery} when clean *)
  site_delivery : (string * delivery) list;
      (** the same counters broken down per source edge, in site order —
          one entry per source; [delivery] is their fold (with the global
          tick count). Empty only in hand-built values. *)
  observe : observe option;
      (** derived gauges of the observability layer; [None] (the default)
          leaves every report byte-identical to an unobserved run *)
  shared : shared option;
      (** shared-delta counters; [None] (the default) when the run did
          not enable MQO sharing, keeping output byte-identical *)
  scale : scale option;
      (** scale-out counters; [None] (the default) unless the run asked
          to track them, keeping output byte-identical *)
  selfmaint : selfmaint option;
      (** self-maintenance counters; [None] (the default) unless some
          hosted algorithm reported them — runs without an ECA-SM
          instance stay byte-identical *)
  evolution : evolution option;
      (** schema-evolution / windowed-view counters; [None] (the default)
          unless the run fired a DDL statement or hosted a windowed view,
          keeping every other run's output byte-identical *)
}

val zero : t
val no_delivery : delivery

val add_delivery : delivery -> delivery -> delivery
(** Component-wise sum ([latency_max] is a max). The global tick count is
    not a sum — one scheduler tick advances every edge at once — so
    callers folding per-edge counters overwrite [ticks] afterwards. *)

val messages : t -> int
(** The paper's M: queries + answers (notifications excluded, as in
    Section 6.1). *)

val bytes_for : s:int -> t -> int
(** The paper's B for a given per-tuple size [S]. *)

val pp : Format.formatter -> t -> unit
(** The delivery block is appended only when a fault or the reliability
    protocol actually fired — any counter beyond the always-metered wire
    totals is nonzero — keeping perfect-FIFO run reports unchanged. *)
