(** The Eager Compensating Algorithm (Algorithm 5.2) — the paper's central
    contribution.

    When an update [U_i] arrives while queries are pending, those queries
    will be evaluated at the source {e after} [U_i] and therefore see its
    effect. ECA anticipates this: the query for [U_i] is

    {v Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩ v}

    — the incremental-maintenance query minus one compensating query per
    pending query, offsetting exactly what those queries will wrongly see.
    Answers accumulate in [COLLECT] and install into the view only at
    quiescence ([UQS = ∅]); installing earlier would expose invalid
    intermediate states (convergent but not consistent).

    Terms whose relation slots are all substituted tuples are evaluated
    locally and not shipped, as Appendix D prescribes. When updates are
    spaced widely enough that no query is pending, ECA degenerates to
    Algorithm 5.1 — compensation costs arise only under contention.

    {b Guarded compensation.} When a query enters the UQS, each of its
    terms with exactly one base slot [B] gets a guard: the equi-join
    conjuncts linking a column of [B] to a literal slot, as (column,
    literal value). An update on [B] whose tuple fails one of them (under
    [Value.compare_for_predicate], so [Int 1] meets [Float 1.0]) makes
    the substituted term provably empty, and it is skipped; the rest of
    those terms turn all-literal and go straight to [COLLECT]. Terms with
    two or more base slots are substituted in fold order and
    simplified as before, so the shipped queries are exactly those of
    the fold [split_local (simplify (V⟨U⟩ − Σ Q_j⟨U⟩))]: a literal term
    never cancels a remote one, and a skipped term adds nothing. With
    [local_literal_eval] off every substituted term is shipped and no
    guard applies. ECA-Local, ECA-SM's fallback, batches and {!refresh}
    inherit this path.

    With [local_literal_eval] on, the pending terms are indexed by
    (relation, guard column, value) — values normalized as
    [Value.compare_for_predicate] compares them — so an update visits
    only the guard hits on its relation plus the terms without a guard,
    in (query id, term position) order: the fold's order, at a cost
    that does not grow with the number of pending queries.

    ECA is strongly consistent (Theorem B.1); the property-based test
    suite re-validates this over randomized update streams and schedules. *)

module R := Relational

type t

val applicable : R.Viewdef.t -> bool
(** Always true: ECA is the catalog ladder's universal fallback rung. *)

val create : ?keyed:R.View.t * string list -> Algorithm.Config.t -> t
(** [keyed = (view, rels)] indexes the materialized view for
    {!key_delete} on each of [rels] (see {!Mview.Keyed}); without it the
    view is a bare bag and pays nothing for indexes. *)

val mv : t -> R.Bag.t

val uqs : t -> (int * R.Query.t) list
(** The unanswered query set, oldest first (exposed for tests and for the
    walkthrough example). *)

val quiescent : t -> bool
(** No pending query and no uninstalled [COLLECT] delta. *)

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

val refresh : Algorithm.Config.t -> Algorithm.instance * Algorithm.outcome
(** Online (re)initialization: an instance born with an empty
    materialization and the full view query already pending (id 0),
    returned together with the outcome that ships that query. Updates
    arriving before the answer are compensated by the ordinary ECA
    algebra — initialization {e is} maintenance of the full view query.
    The warehouse swaps this in when a source schema change invalidates
    a hosted view. *)
