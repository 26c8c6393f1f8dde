(** The conventional centralized incremental view-maintenance algorithm
    of [BLT86] (the paper's Section 5.1 starting point), in isolation:
    full control over base data and view, no decoupling, no anomalies.

    This is what the warehouse {e cannot} run (it has no base data) and
    what SC recovers by replicating the base relations. It also serves as
    the test oracle: maintained views must equal recomputed views after
    every update. *)

module R := Relational

val step : R.Viewdef.t -> R.Db.t -> R.Update.t -> R.Db.t * R.Bag.t
(** [step view db u] applies [u] and returns the new state with the view
    delta [V[db+u] − V[db]] (empty when [u]'s relation is outside the
    view). *)

val maintain :
  R.Viewdef.t -> R.Db.t -> R.Bag.t -> R.Update.t -> R.Db.t * R.Bag.t
(** One maintenance step: new state and new view contents. *)
