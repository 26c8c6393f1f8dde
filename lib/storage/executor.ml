module R = Relational

type result = {
  answer : R.Bag.t;
  cost : Cost.t;
  plans : (R.Term.t * Plan.t) list;
}

(* Evaluate a query at the source: logical answers come from the
   relational evaluator; I/O charges come from the planner; transferred
   bytes are counted per term, before cross-term cancellation, since each
   term's result is materialized and shipped (the paper's per-term
   accounting in Appendix D.2). *)
(* With [Catalog.share_scans], a full scan of a base relation is charged
   once per query even when several terms read it — the "multiple term
   optimization" the paper conjectures would improve ECA's I/O. Only whole
   Scan steps are shared; index probes and nested loops are per term. *)
let shared_scan_discount cat plans =
  if not cat.Catalog.share_scans then 0
  else begin
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc (plan : Plan.t) ->
        List.fold_left
          (fun acc step ->
            match step with
            | Plan.Scan { rel; blocks } ->
              if Hashtbl.mem seen rel then acc + blocks
              else begin
                Hashtbl.replace seen rel ();
                acc
              end
            | Plan.Local | Plan.Index_probe _ | Plan.Nested_loop _ -> acc)
          acc plan.Plan.steps)
      0 plans
  end

(* One plan-cache lookup per term serves both sides: the compiled plan
   evaluates the term and carries the join edges the planner prices. *)
let run cat db q =
  let evaluated =
    List.map
      (fun t ->
        let compiled = R.Plan.of_term t in
        let plan = Planner.plan cat db ~edges:compiled.R.Plan.relation_joins t in
        let bag = R.Eval.planned_term compiled db t in
        (t, plan, bag))
      (R.Query.terms q)
  in
  let answer =
    List.fold_left (fun acc (_, _, b) -> R.Bag.plus acc b) R.Bag.empty evaluated
  in
  let cost =
    List.fold_left
      (fun acc (_, plan, bag) ->
        Cost.add acc
          {
            Cost.io = plan.Plan.io;
            answer_tuples = R.Bag.cardinality bag;
            answer_bytes = R.Bag.byte_size bag;
          })
      Cost.zero evaluated
  in
  let discount =
    shared_scan_discount cat (List.map (fun (_, p, _) -> p) evaluated)
  in
  let cost = { cost with Cost.io = cost.Cost.io - discount } in
  { answer; cost; plans = List.map (fun (t, p, _) -> (t, p)) evaluated }
