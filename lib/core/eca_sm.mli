(** The ECA family's warehouse-local rungs over one driver: ECA-SM
    (self-maintenance with auxiliary views — the middle ground between
    ECA's compensating round trips and SC's full base copies, ROADMAP
    item 2) and ECA-Local (Section 5.5). They differ only in the class
    table the driver consults and the counters they report.

    For ECA-SM the view is run through the {!Relational.Selfmaint}
    analyzer at creation. Updates whose class it marks [Self] or [Aux] are
    handled entirely at the warehouse through the staged per-part delta
    programs (the §4g compiled path), reading only the update tuple, the
    view and the {e auxiliary views} — reduced projections of join
    partners that the instance maintains alongside the primary view.
    ECA-Local's table ({!key_delete_table}) marks local only deletions
    whose declared key the view projects, answered by a key-delete.

    Every other class falls back to the inner ECA's compensating query,
    as does any update arriving while such a query is pending. This is
    the conservative variant of the ordering protocol the paper leaves
    open: interleaving local updates with in-flight compensated queries
    would require buffering and splitting query results, so a local
    update is applied only when
    the instance is quiescent (UQS = ∅ and COLLECT empty). It keeps ECA's
    strong consistency while saving the source round trip in the
    low-contention regime — where, per Section 5.6, compensation never
    arises anyway.

    On fully local views ECA-SM never sends a message, so it is
    permanently quiescent: messages M = 0 and transfer B = 0
    post-registration, at the storage cost of the auxiliary views —
    tracked in {!counters} and weighed against SC by the cost-model
    chooser. *)

module R := Relational

type t

val applicable : R.Viewdef.t -> bool
(** Consulted by the catalog's auto-rung ladder: every update class is
    locally answerable (M = 0 guaranteed) {e and} some class actually
    needs more than ECA's literal-term evaluation — single-relation views
    stay on the plainer rungs. Explicit {!create} accepts partially local
    views too; the ladder does not pick them. *)

val key_delete_table : R.Viewdef.t -> R.Selfmaint.t
(** ECA-Local's class table: a deletion is [Use_key_delete] when the view
    is simple and projects its relation's declared key
    ({!Relational.View.key_positions}); every other class falls back. *)

val local_capable : R.Viewdef.t -> bool
(** Some class of {!key_delete_table} is local — the case where ECA-Local
    actually improves on ECA. Consulted by the auto-rung ladder. *)

val create : Algorithm.Config.t -> t
(** ECA-SM over {!Relational.Selfmaint.analyze}.
    @raise Algorithm.Not_applicable when the analysis calls for maintained
    auxiliary views but [Config.init_db] is [None] — they must be seeded
    from the initial base state. *)

val mv : t -> R.Bag.t
val on_update : t -> R.Update.t -> Algorithm.outcome

val counters : t -> Metrics.selfmaint
(** Updates by handling path ([sm_self], [sm_aux], [sm_fallback]) and the
    current auxiliary storage ([sm_aux_views], [sm_aux_tuples],
    [sm_aux_bytes]). *)

val instance : Algorithm.creator
(** ECA-SM; its {!Algorithm.instance.counters} is [Some] {!counters}. *)

val local_instance : Algorithm.creator
(** ECA-Local: the same driver over {!key_delete_table}; its
    {!Algorithm.instance.counters} is [None]. *)
