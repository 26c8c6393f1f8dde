(** The Eager Compensating Algorithm (Algorithm 5.2) — the paper's central
    contribution — and its lazy variant LCA (sketched in Section 5.3),
    one compensation fold under two install policies.

    When an update [U_i] arrives while queries are pending, those queries
    will be evaluated at the source {e after} [U_i] and therefore see its
    effect. ECA anticipates this: the query for [U_i] is

    {v Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩ v}

    — the incremental-maintenance query minus one compensating query per
    pending query, offsetting exactly what those queries will wrongly see.
    In a batch (Section 7) each update also compensates the terms already
    gathered for the batch. Terms whose slots are all substituted tuples
    are evaluated locally and not shipped, as Appendix D prescribes. When
    no query is pending ECA degenerates to Algorithm 5.1.

    Answers and local terms feed {e update slots}, which install into the
    view once closed (no query feeding them unanswered), oldest first.
    The policy decides exactly four things:
    + which accumulator a compensation term feeds: ECA folds everything
      into the update's own query; LCA sends [−Q_j⟨U⟩] to [Q_j]'s slot
      and a batch's [−extra⟨U⟩] to the accumulator extra came from;
    + whether an event ships one query or one per slot: ECA ships one,
      simplified update by update; LCA one per slot touched, in the order
      the slots were first touched, each simplified once;
    + when accumulators install: ECA feeds one open slot, [COLLECT], which
      closes only at quiescence ([UQS = ∅]) — installing earlier would
      expose invalid intermediate states (convergent but not consistent);
      LCA opens a slot per event, so each source state becomes a view
      state (completeness, at one round-trip per compensation);
    + whether the fold visits the guard index (ECA with local evaluation
      on) or walks the whole UQS (LCA, and ECA with it off): which of
      LCA's slots get a query depends on every term [U] touches.

    {b Guarded compensation.} When a query enters the UQS, each of its
    terms with exactly one base slot [B] gets a guard: the equi-join
    conjuncts linking a column of [B] to a literal slot, as (column,
    literal value). An update on [B] whose tuple fails one of them (under
    [Value.compare_for_predicate], so [Int 1] meets [Float 1.0]) makes
    the substituted term provably empty, and it is skipped; the rest of
    those terms turn all-literal and are evaluated locally. The shipped
    queries are exactly those of the fold [split_local (simplify q)]. With
    [local_literal_eval] off every substituted term is shipped and no
    guard applies. The guard index keys pending terms by (relation, guard
    column, value), so an ECA update visits only its guard hits plus the
    unguarded terms, in (query id, term position) order: the fold's
    order, at a cost that does not grow with the number of pending
    queries. ECA-Local, ECA-SM's fallback and {!refresh} use ECA.

    {b Prepared skeletons.} An instance stages V⟨U⟩ per view part and
    relation ({!Relational.Delta_program.stage_terms}) and keeps one
    guard template per term skeleton and literal mask (see {!guard}), so
    per update it builds only the slot lists around the literal tuples
    and reads the guard values out of them.

    ECA is strongly consistent (Theorem B.1) and LCA complete; the
    property suites re-validate both over randomized streams and
    schedules. *)

module R := Relational

type t

val create : ?keyed:R.View.t * string list -> Algorithm.Config.t -> t
(** An ECA instance. [keyed = (view, rels)] indexes the materialized view
    for {!key_delete} on each of [rels] (see {!Mview.Keyed}); without it
    the view is a bare bag and pays nothing for indexes. *)

val mv : t -> R.Bag.t

val uqs : t -> (int * R.Query.t) list
(** The unanswered query set, oldest first (exposed for tests and for the
    walkthrough example). *)

val quiescent : t -> bool
(** No pending query and no uninstalled delta. *)

val guard : t -> R.Term.t -> (string * (int * R.Value.t) list) option
(** The guard a pending term gets when its query enters the UQS:
    [Some (relation, conjuncts)] for a term with exactly one base slot,
    each conjunct as (column of that slot, the literal value it must
    meet), [None] otherwise. The instance builds a template once per
    term skeleton and literal mask — found again by the physical
    identity of the view part's condition and slot schemas — so a term
    only reads its literal values (exposed for tests). *)

val key_delete : t -> rel:string -> R.Tuple.t -> bool
(** Apply a local key-delete to the view of a quiescent instance — ECAL's
    and ECA-SM's warehouse-local deletions. [false] when no view tuple
    carried the key (the view is unchanged).
    @raise Invalid_argument when work is pending.
    @raise Mview.Mview_error when [rel] was not among [create]'s keyed
    relations. *)

val apply_local : t -> R.Bag.t -> unit
(** Add a locally computed delta to the view of a quiescent instance.
    @raise Invalid_argument when work is pending. *)

val on_update : t -> R.Update.t -> Algorithm.outcome
val on_answer : t -> id:int -> R.Bag.t -> Algorithm.outcome

val instance : Algorithm.creator

val lca : Algorithm.creator
(** The in-order install policy: LCA. *)

val refresh : Algorithm.Config.t -> Algorithm.instance * Algorithm.outcome
(** Online (re)initialization: an instance born with an empty
    materialization and the full view query already pending (id 0),
    returned together with the outcome that ships that query. Updates
    arriving before the answer are compensated by the ordinary ECA
    algebra — initialization {e is} maintenance of the full view query.
    The warehouse swaps this in when a source schema change invalidates
    a hosted view. *)
