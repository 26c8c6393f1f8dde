(** ASCII table rendering of relations, for CLI and example output.

    The trailing [#] column shows the replication count when it differs
    from 1 (bags!) — negative counts render as e.g. [x-1], making
    over-deletion anomalies visible at a glance. *)

val table : columns:string list -> Bag.t -> string
val view_table : View.t -> Bag.t -> string
