(* Reference evaluation for the equivalence tests: the obviously-correct
   semantics the planned evaluator and the staged delta programs are
   compared against, kept out of the library because no program runs
   them.

   - [naive_term]/[naive_query]: full cross product of the slots, the
     condition evaluated by scanning the layout per row, then
     projection — deliberately slow and independent of the plans (only
     the layout helpers are shared); never use them on anything large;
   - [run_plan]: [Eval.run_plan_into] with the plan's own projection and
     one accumulator;
   - [subst_all]: [Q<U1, …, Uk>], the substitutions left to right;
   - [maintain_all]: [Centralized.maintain] folded over an update list. *)

module R = Relational

let naive_term db (t : R.Term.t) =
  let layout = R.Plan.layout_of_slots t.R.Term.slots in
  let slot_rows = function
    | R.Term.Base s ->
      R.Bag.fold (fun tup n acc -> (tup, n) :: acc) (R.Db.contents db s.R.Schema.name) []
    | R.Term.Lit (s, g, tup) ->
      R.Schema.check_tuple s tup;
      [ (tup, R.Sign.to_int g) ]
  in
  let rec cross = function
    | [] -> [ (([||] : R.Value.t array), 1) ]
    | slot :: rest ->
      let tails = cross rest in
      List.concat_map
        (fun (tup, n) ->
          List.map (fun (row, c) -> (R.Tuple.concat tup row, n * c)) tails)
        (slot_rows slot)
  in
  let lookup row a = row.(R.Plan.resolve layout a) in
  let proj = Array.of_list (List.map (R.Plan.resolve layout) t.R.Term.proj) in
  let sign_factor = R.Sign.to_int t.R.Term.sign in
  List.fold_left
    (fun acc (row, count) ->
      if R.Predicate.eval (lookup row) t.R.Term.cond then
        R.Bag.add ~count:(count * sign_factor) (R.Tuple.project proj row) acc
      else acc)
    R.Bag.empty (cross t.R.Term.slots)

let naive_query db q =
  List.fold_left (fun acc t -> R.Bag.plus acc (naive_term db t)) R.Bag.empty q

let run_plan ?(into = R.Bag.empty) (plan : R.Plan.t) ~input ~sign =
  let acc = [| into |] in
  R.Eval.run_plan_into plan ~projs:plan.R.Plan.projs acc ~input ~sign;
  acc.(0)

let subst_all q us = List.fold_left R.Query.subst q us

let maintain_all view db mv updates =
  List.fold_left
    (fun (db, mv) u -> Core.Centralized.maintain view db mv u)
    (db, mv) updates
