(** Staged delta programs: compiled maintenance procedures, one per
    view x update class (insert/delete per base relation).

    [Viewdef.delta] + [Eval.query] interpret V<U> from scratch on every
    update — substitution allocates fresh terms and every term pays a
    plan-cache lookup keyed on its full skeleton. The update's {e class}
    (relation, kind) determines all of that; only the tuple varies. A
    staged program therefore resolves it once: for each view part
    mentioning the relation it captures the cached {!Plan}, a slot-source
    vector (database relation vs. update tuple) and the folded-out sign
    factor, leaving a tuple-sized amount of work per update.

    Batches of same-class updates evaluate in {e one} pass: [View.make]
    rejects a relation mentioned twice, so the updated relation occupies
    exactly one slot of every chain and the plan is linear in it — a bag
    of N tuples through one join equals N single-tuple joins summed.
    Staged programs and the interpreter both run through
    {!Eval.run_plan_into}, so their results are identical bags — not
    merely equivalent ones. Views whose programs differ only in
    projection stage once ({!stage_shared}): one join pass then serves
    them all, projected once per view. Staged programs are the only
    path that advances the engine's oracle and SC's replica view; the
    interpreter (as in [Core.Centralized]) is the reference they are
    tested against.

    For maintainers that ship V⟨U⟩ rather than evaluate it (the ECA
    family), staging stops at the terms ({!stage_terms}): they keep the
    view's projection, condition and schemas physically, so the owners
    further down — an ECA instance's guard templates, a warehouse's
    widened projections ({!Query.widenings}) — find the skeleton again
    by physical identity, and a source's plan-cache lookup
    ({!Plan.of_term}, which also carries the planner's join edges)
    settles its key compare by pointer tests.

    Programs are owned by their stager: the engine keeps one {!staged}
    per group of shareable views and restages it after a schema change,
    SC stages once per instance, a {!Selfmaint} analysis holds one {!t}
    per locally maintained part, and each ECA-family instance holds its
    {!terms}. Nothing here caches them; only the plans underneath are
    shared, per domain, through {!Plan.of_term}. *)

type t
(** One program: a specific view, or a group of {!shareable} views,
    maintained under a specific update class. *)

type staged
(** All programs of one view (or one group of {!shareable} views),
    indexed by relation and update kind — what a registration site
    holds onto. *)

val stage : Viewdef.t -> staged
(** Stage every (relation, kind) class of the view's delta. Each call
    builds fresh programs; callers keep the result for as long as the
    view definition holds. *)

val shareable : Viewdef.t -> Viewdef.t -> bool
(** Whether one program can advance both definitions: their parts pair
    up with equal signs and {!Term.skeleton_equal} terms — the same
    slots, condition and sign, whatever each part projects. Projections
    of one join are shareable; two views equal up to their names are
    too. *)

val stage_shared : Viewdef.t list -> staged
(** Stage the views' classes once for all of them: each class program
    joins once per chain and projects into one accumulator per view, in
    list order ({!apply_shared}). [stage vd] is [stage_shared [vd]].
    @raise Invalid_argument on an empty list, or when a view is not
    {!shareable} with the first. *)

val stage_class : Viewdef.t -> rel:string -> kind:Update.kind -> t
(** Stage one class alone: what {!find} on {!stage}'s result returns,
    with no chains (see {!is_empty}) when the view does not mention
    [rel]. *)

val find : staged -> rel:string -> kind:Update.kind -> t option
(** [None] iff the view does not mention [rel] — exactly when
    [Viewdef.delta] would be the empty query. *)

val of_update : staged -> Update.t -> t option
(** [find] keyed by an update's class. *)

val apply : ?into:Bag.t -> t -> Db.t -> Tuple.t -> Bag.t
(** The delta V<U> of one update with the given tuple, evaluated against
    [db] and added to [into] (default empty). Equals
    [Bag.plus into (Eval.query db (Viewdef.delta view u))] — the database
    is read only for relations other than the program's own, so callers
    may pass the state from either side of the update, as the paper's
    algorithms variously do. Returns [into] itself when no join row
    results.
    @raise Schema.Schema_error when the tuple does not fit the updated
    relation's schema. *)

val apply_batch : ?into:Bag.t -> t -> Db.t -> Tuple.t list -> Bag.t
(** The summed delta of a batch of same-class updates added to [into]:
    equals the [Bag.plus] over per-tuple {!apply} results, computed in
    one plan pass, for a program staged for one view. Accumulating
    straight into a view saves building the delta as a separate bag. Returns
    [into] itself when no join row results (in particular for an empty
    batch). *)

val apply_shared : t -> Db.t -> Tuple.t list -> Bag.t array -> unit
(** {!apply_batch} for every view of a {!stage_shared} program at once:
    one plan pass per chain, whose result rows are projected once per
    view and added to that view's accumulator (index [j] for the [j]th
    view staged). An accumulator no join row reaches is left physically
    unchanged. {!apply_batch} is the one-view case, with an array of
    one. *)

val runs : Update.t list -> Update.t list list
(** Split a mixed batch into maximal consecutive runs of one update
    class, preserving order; concatenating the runs restores the batch.
    Each run is [apply_batch]-able after its updates execute; runs must
    be processed in sequence. *)

type terms
(** V⟨U⟩ staged as terms, for a maintainer that ships its delta queries
    rather than evaluating them (the ECA family): per relation, each
    mentioning view part's term with the part's sign folded in, the slot
    an update fills and that slot's schema. Owned by the instance that
    stages it, for as long as its view definition holds. *)

val stage_terms : Viewdef.t -> terms

val delta_query : terms -> Update.t -> Query.t
(** Equals [Viewdef.delta vd u] for the staged [vd], term for term,
    raising the same [Schema.Schema_error] on a tuple that does not fit;
    each term keeps the view part's projection, condition and schemas
    physically. *)

val is_empty : t -> bool
(** No view part mentions the relation; {!apply} returns the empty bag. *)
