(** The ECA-Key algorithm (Section 5.4): a streamlined ECA for views that
    project a declared key of every base relation.

    Key coverage buys two simplifications:
    - {b deletions} are handled entirely at the warehouse: the projected
      key identifies exactly the view tuples derived from the deleted base
      tuple ([key-delete]); no query is sent;
    - {b insertions} send the plain [V⟨U⟩] with {e no} compensating
      queries: with keys, every anomaly manifests either as a duplicate
      view tuple (detected and ignored — a keyed view is a set) or as a
      missing tuple that a concurrent delete would have removed anyway.

    [COLLECT] is a working {e copy} of the view (not a delta): deletes
    apply to it immediately, answers are added with duplicate elimination,
    and it replaces the materialized view whenever [UQS = ∅] — without
    being reset. ECAK is strongly consistent (Appendix C).

    {b Fidelity note.} The algorithm as literally specified in the paper
    has a gap our property tests exposed: when an insert into relation [r]
    and a delete of that very tuple race the insert's query, the query
    carries the deleted tuple as a {e literal}, so Appendix C's "the query
    will not see the deleted key at the source" argument does not apply —
    the late answer re-adds the tuple after the local key-delete. We
    repair this with {e key tombstones}: a delete processed while queries
    are pending also filters the answers of those earlier queries (and
    only those, so later re-insertions of the same key survive). The exact
    counterexample is pinned as a regression test.

    Tombstones cost neither the run's deletes nor the pending queries:
    they are a table from (relation, deleted key) to the newest cutoff,
    so an answer costs one probe per relation per tuple (every
    relation's key layout is resolved once, in [create]) and comes back
    unchanged when nothing is hit. After each answer, a FIFO of the
    cutoffs drops those at most the oldest pending query id — ids enter
    the UQS increasing, so no later answer can meet them — each with its
    table entry unless a newer delete of the key replaced it. *)

module R := Relational

type t

val applicable : R.Viewdef.t -> bool
(** True exactly when [create] would succeed: a simple SPJ view that
    projects a declared key of every base relation. Consulted by the
    catalog's auto-rung ladder. *)

val create : Algorithm.Config.t -> t
(** @raise Algorithm.Not_applicable unless {!Relational.View.covers_all_keys}. *)

val mv : t -> R.Bag.t

val collect : t -> R.Bag.t
(** The working copy (exposed for the paper-example tests, which assert
    its intermediate states). *)

val quiescent : t -> bool
val on_update : t -> R.Update.t -> Algorithm.outcome
val on_answer : t -> id:int -> R.Bag.t -> Algorithm.outcome

val instance : Algorithm.creator
