(** The site-graph simulation engine: one warehouse, N autonomous
    sources, one event loop.

    Nodes are {!Source_site.Source}s plus a single warehouse; each source
    is connected by its own edge — a {!Messaging.Network} channel pair
    with its own optional fault profile, reliability sublayer and
    retransmit clock. A run in progress is one {!state}: the site graph,
    the scheduler's ready sets, the oracle, the unexecuted workload, the
    trace, the warehouse and the counters. {!start} builds it; each
    {!step} executes one atomic event, generalizing the single-source
    semantics of the paper: one source event (an update, a batch or a
    DDL, plus its notification), one query answered at a source or one
    message processed at the warehouse, picked by a {!Scheduler.policy}
    among the enabled events across sites. When nothing is enabled but
    messages are in flight, every busy edge's transport clock advances
    one tick; when the graph is fully drained the warehouse gets a
    quiescence probe (where RV flushes a partial period), and the run
    ends when the probe produces no new work. Every step counts toward
    the step limit, so [metrics.steps] is the trace's entry count plus
    the ticks plus the final probe. {!finish} assembles the {!result}.

    {!run} is [finish (start …)], the entry point for every whole run:
    the paper's single source is the one-site graph
    [[site ~name:"source" db]], the Section 7 federation one site per
    source, and a {!Catalog} supplies [~creator], [~views] and
    [~windows]. The golden-trace suite pins its output byte-for-byte.

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

type state
(** A run in progress. *)

type event =
  | Pick of Scheduler.event
      (** the scheduler's pick: one [S_up], [S_qu], [W_up] or [W_ans] *)
  | Tick  (** every busy edge's transport clock advanced one tick *)
  | Probe  (** a quiescence probe of the drained graph *)

type 'a options =
  ?schedule:Scheduler.policy -> ?rv_period:int -> ?batch_size:int ->
  ?local_literal_eval:bool -> ?allow_cross_source:bool ->
  ?observe:Observe.Collector.t -> ?share_deltas:bool -> ?coalesce:bool ->
  ?track_scale:bool -> ?evolution:(int * R.Update.ddl) list ->
  ?windows:(string * Window.spec) list -> creator:Algorithm.creator ->
  sites:site_spec list -> views:R.Viewdef.t list -> updates:R.Update.t list ->
  unit -> 'a
(** A run's inputs, taken alike by {!start} and {!run}. The update
    stream replays over the site graph, whose sources own disjoint
    relations. Each update executes at the source owning its relation,
    and each query at the source owning its base relations; updates with
    [seq = 0] are numbered in global stream order. Each view binds to
    the unique source owning all its relations and is judged against
    that source's state sequence; with a single source every view binds
    to it unconditionally. Views spanning several sources are rejected
    unless [~allow_cross_source:true] opts into the naive fetch-join
    demonstration, judged against the merged global state. Initial
    materialized views are computed from the site databases (the
    paper's "initially correct" assumption).

    With [batch_size > 1] one source event atomically executes up to
    that many {e consecutive same-source} updates and sends a single
    batched notification — a batch never spans sources.

    With [?observe] each {!step} hands what its event did to an
    {!Observer}, which emits typed spans and per-view staleness gauges
    into the collector, clocked by the deterministic step counter so
    traces reproduce exactly, and [result.metrics.observe] carries its
    summary. Without it no code path branches on observability: metrics,
    trace and reports are byte-identical to an unobserved run.

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
    Default off.

    With [~track_scale:true] the run additionally reports
    [result.metrics.scale]: peak per-edge inflight, coalescing counters
    and the peak active-edge count — the observables of the scale-out
    machinery. Default off.

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
    carries the counters.

    With [~windows] the named views are trailing-k-partition views (see
    {!Window}): their warehouse instances are wrapped to filter installs
    to the live window, prune out-of-window compensation terms and age
    partitions out deterministically at quiescence probes, while the
    oracle's states are filtered through an independent watermark
    advanced at source execution — windowed runs are judged
    windowed-vs-windowed. *)

val start : state options
(** Builds the initial state from validated inputs; no event runs yet.
    @raise Engine_error when [batch_size] or [rv_period] is below 1, the
    schedule's bound or quantum is below 1, two views share a name, a
    relation is owned by two sources, a view uses an unowned relation or
    spans several sources without [~allow_cross_source], a window names
    an unknown view, or any workload item (update or schema change)
    targets a relation no source owns; with a single source every item
    routes to it, and the source rejects an unknown relation at the
    {!step} that reaches it.
    @raise Window.Window_error when a window names an invalid partition
    attribute. *)

val step : state -> event option
(** Executes the next atomic event and returns it, or [None] once the
    final probe has found no new work (and on every later call).
    @raise Engine_error when the event's query targets an unowned
    relation, its source rejects an update (a delete of an
    absent tuple, a wrong-arity insert, an insert into an unknown
    relation of a single source, a key violation) or a schema change, a
    protocol invariant breaks, or the run exceeds 2,000,000 steps. *)

val finish : state -> result
(** Steps the state until [None], then assembles the result. *)

val run : result options
(** [finish (start …)]: a whole run; raises as {!start} and {!step} do. *)
