(** The warehouse site: hosts one algorithm instance per materialized
    view over a single source (Section 7's multi-view adaptation — "ECA is
    simply applied to each view separately").

    The engine's receive handler dispatches each message to one of the
    event handlers below: an update notification fans out to the
    interested instances; instance-local query ids are mapped to globally
    unique ids so that answers find their way back. Events are atomic, as
    Section 3 assumes: each handler folds its targets' outcomes, in host
    order, into one {!reaction}. *)

module R := Relational

type t

(** What the warehouse decided after processing one message. *)
type reaction = {
  queries : (int * R.Query.t) list;  (** to ship, with global ids *)
  installs : (string * R.Bag.t list) list;
      (** per view name, successive new MV states *)
}

val create :
  ?share:bool -> creator:Algorithm.creator -> Algorithm.Config.t list -> t
(** Hosts [creator cfg] for every view configuration, in list order;
    per-view algorithm choice is the creator's business (see
    {!Catalog.creator}).

    With [~share:true] the warehouse runs shared-delta (MQO)
    maintenance: within one atomic event, queries produced by
    {e distinct} hosted instances whose terms match up to projection
    (keyed by the skeleton {!R.Query.signature}, confirmed by
    {!R.Query.equal} or {!R.Query.widen}) are shipped once, with the
    shipped projection widened to the union of the subscribers'
    columns; each subscriber receives the answer projected through its
    own column map. Queries whose terms keep different columns
    (compound views' parts) share only when equal. Each gid keeps one
    subscriber list, owner first, in which an instance appears at most
    once: sharing never merges two queries of one instance, so each view
    receives one answer per query it sent, and its lifecycle — in
    particular a catalog of one view — is exactly the unshared one.
    Sharing never spans events (the source state may change between
    events). Default off.

    Dispatch consults each instance's {!Algorithm.instance.interest}: updates fan out only to
    the instances whose relations they touch, O(interested) rather than
    O(views). *)

val mvs : t -> (string * R.Bag.t) list
(** Every hosted view's materialization, in host order: the order of
    [create]'s configs. *)

val quiescent : t -> bool
(** All hosted instances are quiescent. *)

val view_quiescent : t -> int -> bool
(** The instance hosting the [i]th view, in host order, is quiescent. *)

val shared_counters : t -> int * int * int
(** [(shared_evaluated, shared_hits, shared_fanout)]: shipped queries
    that gained at least one extra subscriber; queries deduplicated away
    by sharing; answer deliveries made through multi-subscriber gids.
    All 0 when sharing is off. *)

val selfmaint_counters : t -> Metrics.selfmaint option
(** Sum of the hosted instances' {!Algorithm.instance.counters} — [Some]
    iff at least one instance (the ECA-SM rung, windowed or
    timing-wrapped or not) reports the block, so every other run's
    metrics stay byte-identical. *)

val gid_view : t -> int -> (string * string) option
(** The [(view name, algorithm name)] owning an outstanding query gid —
    for a shared gid, the instance that actually shipped it; [None] once
    the answer has been routed (the route is consumed) or for an unknown
    gid. *)

val handle_update : t -> R.Update.t -> reaction
(** A [W_up] event, fanned out to every hosted view. A view whose
    instance rejects the update with [R.Db.Db_error] (SC's replica
    refusing a duplicated or reordered notification from a raw faulty
    edge) is recorded as an anomaly naming it and contributes nothing to
    the reaction; the other views proceed. *)

val handle_batch : t -> R.Update.t list -> reaction
(** A batched notification, fanned out to every hosted view's
    [on_batch]; rejections are handled as in {!handle_update}. *)

val handle_answer : t -> gid:int -> R.Bag.t -> reaction
(** A [W_ans] event, routed to the owning instance — and, for a shared
    gid, fanned out to every subscriber in subscription order. An answer
    whose route was retired by a schema change is absorbed silently (a
    counted tombstone, see {!apply_ddl}); an answer for a gid that was
    never outstanding is recorded as an anomaly and dropped. *)

val enable_ddl_guard : t -> unit
(** Arm the notification screen: with schema changes in play, a faulty
    channel may reorder an update notification across the [Ddl_note]
    that explains its new shape, so {!handle_update}/{!handle_batch}
    check each tuple against the hosted views' current schemas and drop
    mismatches as anomalies instead of crashing mid-substitution. The
    engine arms it up front whenever its run carries DDLs ({!apply_ddl}
    also arms it, but a reordered notification can arrive {e before} the
    first note does); DDL-free runs never pay for the check. *)

val apply_ddl :
  t ->
  R.Update.ddl ->
  rebuild:(R.Viewdef.t -> R.Viewdef.t * Algorithm.instance * Algorithm.outcome) ->
  reaction * string list
(** A source schema change reached the warehouse. Every hosted view
    mentioning the changed relation is passed to [rebuild] — which
    returns the rewritten definition, a replacement instance and the
    outcome that starts it (typically {!Eca.refresh}'s full-view query) —
    and the in-flight routes are reconciled: routes whose subscribers are
    all affected are retired (their tombstone answers will be absorbed by
    {!handle_answer}), shared routes with an unaffected survivor promote
    that survivor to owner. Returns the folded reaction plus the names of
    the rebuilt views. An empty reaction and [[]] when no hosted view
    mentions the relation. *)

val evolution_counters : t -> int * int
(** [(rebuilds, retired_hits)]: instances re-initialized by schema
    changes, and tombstone answers absorbed through retired routes. *)

val misrouted : t -> Messaging.Message.t -> reaction
(** A message kind the warehouse never legitimately receives (a [Query],
    or a [Data]/[Ack] frame that belongs to the reliability sublayer):
    recorded as an anomaly (see {!anomalies}), answered with
    an empty reaction — a misrouted message must not take down every hosted
    view. The engine's receive handler dispatches every other kind to
    {!handle_update}, {!handle_batch}, {!handle_answer} or
    {!apply_ddl}. *)

val anomalies : t -> string list
(** Human-readable records of misrouted messages and rejected
    notifications, oldest first; empty on every well-formed run. *)

val quiesce : t -> reaction
(** Forward [on_quiesce] to all instances (RV's final recompute). *)
