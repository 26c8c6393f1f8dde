(* The per-term computations that prepared term skeletons replaced, kept
   as reference models. Each rebuilt, for every term, what depends only
   on the term's skeleton (projection, condition, slot schemas) and
   literal mask:

   - ECA's guard resolved a plan layout per enqueued term;
   - [Eval.literal_query] ran each all-literal term through [run_plan]
     with a singleton bag per slot;
   - [Executor.run] re-derived every term's join edges for the planner,
     beside the plan-cache lookup that evaluates it;
   - [Query.widen] built a fresh widened projection for every rider.

   test_prepared.ml checks the prepared forms against these. *)

module R = Relational

(* ------------------------------------------------------------------ *)
(* ECA's guard                                                         *)
(* ------------------------------------------------------------------ *)

(* The guard of a term with exactly one base slot [base]: its equi-join
   conjuncts between a column of that slot and a literal slot, resolved
   through the plan layout as (column within the base slot, the literal's
   value). *)
let guard (term : R.Term.t) base =
  let layout = R.Plan.layout_of_slots term.R.Term.slots in
  let slots = Array.of_list term.R.Term.slots in
  let side a =
    let pos = R.Plan.resolve layout a in
    let s = R.Plan.slot_of_position layout pos in
    (s, pos - layout.R.Plan.offsets.(s))
  in
  let literal s col =
    match slots.(s) with
    | R.Term.Lit (_, _, tup) -> Some (R.Tuple.get tup col)
    | R.Term.Base _ -> None
  in
  List.filter_map
    (function
      | R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.Col a, R.Predicate.Col b) ->
        let (sa, ca), (sb, cb) = (side a, side b) in
        if sa = base && sb <> base then Option.map (fun v -> (ca, v)) (literal sb cb)
        else if sb = base && sa <> base then Option.map (fun v -> (cb, v)) (literal sa ca)
        else None
      | _ -> None)
    (R.Predicate.conjuncts term.R.Term.cond)

(* [Some (relation, guard)] for a term with exactly one base slot. *)
let shape (term : R.Term.t) =
  let bases =
    List.concat
      (List.mapi
         (fun i -> function R.Term.Base s -> [ (i, s) ] | R.Term.Lit _ -> [])
         term.R.Term.slots)
  in
  match bases with
  | [ (i, s) ] -> Some (s.R.Schema.name, guard term i)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Literal terms                                                       *)
(* ------------------------------------------------------------------ *)

let literal_query q =
  List.fold_left
    (fun acc (t : R.Term.t) ->
      if not (R.Term.is_all_literals t) then
        raise (R.Eval.Eval_error "literal_term: term still references base relations");
      let slots = Array.of_list t.R.Term.slots in
      Ref_eval.run_plan ~into:acc (R.Plan.of_term t)
        ~input:(fun i ->
          match slots.(i) with
          | R.Term.Lit (s, g, tup) ->
            R.Schema.check_tuple s tup;
            R.Eval.Tuples (R.Bag.singleton ~count:(R.Sign.to_int g) tup)
          | R.Term.Base s -> R.Eval.Relation (R.Db.empty, s.R.Schema.name))
        ~sign:(R.Sign.to_int t.R.Term.sign))
    R.Bag.empty q

(* ------------------------------------------------------------------ *)
(* The source's executor                                               *)
(* ------------------------------------------------------------------ *)

let shared_scan_discount (cat : Storage.Catalog.t) plans =
  if not cat.Storage.Catalog.share_scans then 0
  else begin
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc (plan : Storage.Plan.t) ->
        List.fold_left
          (fun acc step ->
            match step with
            | Storage.Plan.Scan { rel; blocks } ->
              if Hashtbl.mem seen rel then acc + blocks
              else begin
                Hashtbl.replace seen rel ();
                acc
              end
            | Storage.Plan.Local | Storage.Plan.Index_probe _
            | Storage.Plan.Nested_loop _ ->
              acc)
          acc plan.Storage.Plan.steps)
      0 plans
  end

(* Equi-join conjuncts across distinct relations, read off the
   condition. *)
let join_edges (t : R.Term.t) =
  List.filter_map
    (function
      | R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.Col a, R.Predicate.Col b) -> (
        match a.R.Attr.rel, b.R.Attr.rel with
        | Some ra, Some rb when not (String.equal ra rb) ->
          Some (ra, a.R.Attr.name, rb, b.R.Attr.name)
        | _ -> None)
      | _ -> None)
    (R.Predicate.conjuncts t.R.Term.cond)

let executor_run cat db q =
  let evaluated =
    List.map
      (fun t ->
        (t, Storage.Planner.plan cat db ~edges:(join_edges t) t, R.Eval.term db t))
      (R.Query.terms q)
  in
  let answer =
    List.fold_left (fun acc (_, _, b) -> R.Bag.plus acc b) R.Bag.empty evaluated
  in
  let cost =
    List.fold_left
      (fun acc (_, (plan : Storage.Plan.t), bag) ->
        Storage.Cost.add acc
          {
            Storage.Cost.io = plan.Storage.Plan.io;
            answer_tuples = R.Bag.cardinality bag;
            answer_bytes = R.Bag.byte_size bag;
          })
      Storage.Cost.zero evaluated
  in
  let discount = shared_scan_discount cat (List.map (fun (_, p, _) -> p) evaluated) in
  {
    Storage.Executor.answer;
    cost = { cost with Storage.Cost.io = cost.Storage.Cost.io - discount };
    plans = List.map (fun (t, p, _) -> (t, p)) evaluated;
  }

(* ------------------------------------------------------------------ *)
(* Widening                                                            *)
(* ------------------------------------------------------------------ *)

let uniform_proj = function
  | [] -> None
  | (t : R.Term.t) :: rest ->
    let p = t.R.Term.proj in
    if List.for_all (fun (t' : R.Term.t) -> List.equal R.Attr.equal p t'.R.Term.proj) rest
    then Some p
    else None

let widen ~shipped q =
  match (uniform_proj shipped, uniform_proj q) with
  | Some ps, Some pq when List.equal R.Term.skeleton_equal shipped q ->
    let has l a = List.exists (R.Attr.equal a) l in
    let missing =
      List.rev
        (List.fold_left
           (fun acc a -> if has ps a || has acc a then acc else a :: acc)
           [] pq)
    in
    let proj = ps @ missing in
    let shipped =
      if missing = [] then shipped
      else List.map (fun (t : R.Term.t) -> { t with R.Term.proj }) shipped
    in
    let position a =
      let rec go i = function
        | [] -> assert false
        | a' :: rest -> if R.Attr.equal a a' then i else go (i + 1) rest
      in
      go 0 proj
    in
    Some (shipped, Array.of_list (List.map position pq))
  | _ -> None
