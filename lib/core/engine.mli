(** The site-graph simulation engine: one warehouse, N autonomous
    sources, one event loop.

    Nodes are {!Source_site.Source}s plus a single warehouse; each source
    is connected by its own edge — a {!Messaging.Network} channel pair
    with its own optional fault profile, reliability sublayer and
    retransmit clock. One atomic-event loop generalizes the single-source
    semantics of the paper: an iteration is one source event (an update,
    a batch or a DDL, plus its notification), one query answered at a
    source, one message processed at the warehouse, one tick or one
    probe, under a {!Scheduler.policy} multiplexing the enabled events
    across sites. When nothing is enabled but messages are in flight,
    every busy edge's transport clock advances one tick; when the graph
    is fully drained the warehouse gets a quiescence probe (where RV
    flushes a partial period), and the run ends when the probe produces
    no new work. The step limit counts every iteration, ticks and probes
    included, so [metrics.steps] is the trace's entry count plus the
    ticks plus the final probe.

    {!run} is the one entry point for every run: the paper's single
    source is the one-site graph [[site ~name:"source" db]], the
    Section 7 federation one site per source, and a {!Catalog} supplies
    [~creator], [~views] and [~windows]. The golden-trace suite pins its
    output byte-for-byte.

    Relations are owned by exactly one source; views bind to the unique
    source owning all their relations and are judged against that
    source's state sequence. Views spanning several sources are rejected
    unless [~allow_cross_source:true] opts into the naive fetch-join
    demonstration, judged against the merged global state. With a single
    source, every view binds to it unconditionally — the historical
    single-source driver's leniency.

    The consistency oracle — the source-view states [V[ss_0], V[ss_1],
    …] recorded in the trace — advances once per update-class run of a
    source event through each affected view's staged
    {!Relational.Delta_program}; every recorded state equals
    [Viewdef.eval] over the source state after that event. *)

module R := Relational

exception Engine_error of string

type site_spec = {
  name : string;  (** labels the edge's channels and the result entries *)
  db : R.Db.t;
  catalog : Storage.Catalog.t option;
  fault : Messaging.Fault.profile;
  fault_seed : int;
  reliable : bool;
}

val site :
  ?catalog:Storage.Catalog.t ->
  ?fault:Messaging.Fault.profile ->
  ?fault_seed:int ->
  ?reliable:bool ->
  name:string ->
  R.Db.t ->
  site_spec
(** A source node: clean exactly-once FIFO edge by default; [fault]
    makes both directions of this edge misbehave (seeded by
    [fault_seed], default 0), [reliable] runs the {!Messaging.Reliable}
    sublayer over them. The paper's single source is
    [[site ~name:"source" db]]; federated callers seed edge [i] with
    [fault_seed + 2i] so the edges fail independently. *)

type result = {
  trace : Trace.t;
  metrics : Metrics.t;
      (** global counters; [metrics.site_delivery] carries the per-edge
          transport breakdown in site order *)
  reports : (string * Consistency.report) list;  (** per view *)
  final_mvs : (string * R.Bag.t) list;
  final_source_views : (string * R.Bag.t) list;
  negative_installs : (string * R.Bag.t) list;
      (** installed view states carrying net-negative counts — witnesses
          of over-deletion anomalies *)
  sources : (string * Source_site.Source.t) list;  (** in site order *)
  warehouse_anomalies : string list;
      (** misrouted messages the warehouse absorbed (see
          {!Warehouse.anomalies}) *)
}

val run :
  ?schedule:Scheduler.policy ->
  ?rv_period:int ->
  ?batch_size:int ->
  ?local_literal_eval:bool ->
  ?allow_cross_source:bool ->
  ?observe:Observe.Collector.t ->
  ?share_deltas:bool ->
  ?coalesce:bool ->
  ?track_scale:bool ->
  ?evolution:(int * R.Update.ddl) list ->
  ?windows:(string * Window.spec) list ->
  creator:Algorithm.creator ->
  sites:site_spec list ->
  views:R.Viewdef.t list ->
  updates:R.Update.t list ->
  unit ->
  result
(** Replays the update stream over the site graph. Each update routes to
    the source owning its relation and executes there; updates with
    [seq = 0] are numbered in global stream order. With [batch_size > 1]
    one source event atomically executes up to that many {e consecutive
    same-source} updates and sends a single batched notification — a
    batch never spans sources. Queries route to the source owning their
    base relations. Initial materialized views are computed from the
    site databases (the paper's "initially correct" assumption).

    @raise Engine_error when [batch_size] or [rv_period] is below 1, the
    schedule's bound or quantum is below 1, two views share a name, a
    relation is owned by two sources, a view uses an unowned relation or spans several sources
    without [~allow_cross_source], an update or query targets an unowned
    relation, a source rejects an update (a delete of an absent tuple, a
    wrong-arity insert, an insert into an unknown relation of a single
    source, a key violation) or a schema change, a protocol invariant
    breaks, or the run exceeds 2,000,000 engine steps.

    With [?observe] the loop additionally emits a typed span per atomic
    event into the collector — clocked by the deterministic step counter,
    so traces reproduce exactly across runs — plus per-view staleness
    gauges, and [result.metrics.observe] carries the derived summary.
    Without it the engine takes no observability branch at all: metrics,
    trace and reports are byte-identical to an unobserved build.

    With [~share_deltas:true] the warehouse runs multi-query-optimized
    shared maintenance (see {!Warehouse.create}): inside one atomic
    event, queries from distinct hosted views that differ at most in
    their projection ship once, with the union of their columns, and the
    answer fans out to every subscriber, projected to its columns;
    [result.metrics.shared] then carries the sharing counters. Sharing
    is restricted to distinct instances within one event, so a
    single-view run — and any catalog whose views never coincide — is
    byte-identical to an unshared one apart from the extra metrics
    field. Default off.

    With [~coalesce:true] a source event keeps absorbing {e consecutive
    same-relation, same-kind} updates of its source past [batch_size]:
    the whole update-class run executes as one atomic batch and ships as
    a single [Batch_note], feeding the compiled [apply_batch] path at
    the warehouse and cutting the notification count on a hot edge.
    Default off — and off is byte-identical to the historical engine.

    With [~track_scale:true] the run additionally reports
    [result.metrics.scale]: peak per-edge inflight, coalescing counters
    and the peak active-edge count — the observables of the scale-out
    machinery. Off by default so reports stay byte-identical.

    With [~evolution] the update stream carries online schema changes: a
    [(p, ddl)] pair fires after [p] DML updates have executed, as its
    own atomic source event (never batched or coalesced). The change
    applies to the owning source's base relations, the oracle rewrites
    every affected view definition and restages its delta programs, and
    a [Ddl_note] travels the owning edge; on arrival the warehouse
    rewrites its hosted definitions, swaps affected instances for
    online-refreshing ECA ones ({!Eca.refresh}) and retires the routes
    of in-flight queries that straddle the change — the sources answer
    those empty at zero cost, and the warehouse absorbs the tombstones.
    On clean or reliable (FIFO) edges the note precedes every tombstone,
    so consistency and convergence survive the boundary; raw faulty
    edges may reorder the note and lose both. [result.metrics.evolution]
    carries the counters. Empty [evolution] is byte-identical to the
    historical engine.

    With [~windows] the named views are trailing-k-partition views (see
    {!Window}): their warehouse instances are wrapped to filter installs
    to the live window, prune out-of-window compensation terms and age
    partitions out deterministically at quiescence probes, while the
    oracle's states are filtered through an independent watermark
    advanced at source execution — windowed runs are judged
    windowed-vs-windowed.
    @raise Window.Window_error when a window spec names an unknown view
    or an invalid partition attribute. *)
