(** Relation statistics measured on the live instance: the quantities the
    paper parameterizes its analysis with (C, J, σ), computed from data
    instead of assumed.

    The analytic model in [lib/costmodel] uses the paper's constants; the
    physical planner uses these measured statistics, so the two can be
    compared in the benches. *)

val cardinality : Relational.Db.t -> string -> int
(** C: current number of tuples in a base relation; O(1). *)

val distinct_values : Relational.Db.t -> string -> string -> int
(** Distinct values of attribute [a] in [r] (see
    {!Relational.Db.distinct_values}): O(1) on an indexed column, a pass
    over the relation on every call otherwise. *)

val join_factor : Relational.Db.t -> string -> string -> float
(** J(r, a): expected tuples of [r] matching one value of attribute [a]
    (C / distinct-count; 1.0 on empty relations). *)

val selectivity : Relational.Db.t -> Relational.View.t -> float
(** σ: measured fraction of equi-joined rows that the view's residual
    condition keeps. *)
