(** SC — store copies of all base relations at the warehouse
    (Section 1.2's second strawman).

    The warehouse holds an up-to-date replica of every base relation used
    by the view; update notifications are applied to the replica and the
    view is maintained with the centralized incremental algorithm, locally
    and immediately — through the view's staged
    {!Relational.Delta_program}s, which compute the same deltas as
    {!Centralized.step}. No queries ever go to the source, so no anomaly can
    arise: SC is complete. Its price is storage (full copies) and the
    widened update messages — the trade-off the ablation bench
    quantifies. *)

module R := Relational

type t

val create : Algorithm.Config.t -> t
(** @raise Algorithm.Not_applicable without [Config.init_db], which
    seeds the replica. *)

val mv : t -> R.Bag.t

val replica : t -> R.Db.t
(** The warehouse-side copy of the base relations. *)

val quiescent : t -> bool

val on_update : t -> R.Update.t -> Algorithm.outcome
(** @raise R.Db.Db_error when the replica rejects the update (a declared
    key broken or an absent tuple deleted — possible only when a faulty
    edge duplicates or reorders notifications); [t] is then unchanged. *)

val on_batch : t -> R.Update.t list -> Algorithm.outcome
(** One staged-program pass per update-class run when the view is
    simple; otherwise the sequential replay of [on_update]. Identical
    outcomes either way: one install iff some update's delta was
    nonempty. The batch is atomic — when the replica rejects any of its
    updates, the replica and view are restored and the exception
    propagates. *)

val on_answer : t -> id:int -> R.Bag.t -> Algorithm.outcome

val instance : Algorithm.creator
