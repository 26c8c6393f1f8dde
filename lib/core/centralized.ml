module R = Relational

(* The classical immediate-maintenance step: apply the update, then
   evaluate V<U> against the NEW state. Because the view's base relations
   are distinct and only U's relation changed, the substituted query is
   exactly V[new] − V[old]: for an insert the new tuple joins against the
   other relations once; for a delete the literal carries a minus sign and
   subtracts its derivations. *)
let step view db (u : R.Update.t) =
  let db' = R.Db.apply db u in
  let delta =
    if R.Viewdef.mentions view u.R.Update.rel then
      R.Eval.query db' (R.Viewdef.delta view u)
    else R.Bag.empty
  in
  (db', delta)
