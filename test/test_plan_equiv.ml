(* Equivalence of the planned evaluator with the naive reference.

   {!Eval.query} runs compiled plans over hash-indexed bags; [Ref_eval.naive_*]
   keeps the obviously-correct semantics (full cross product, per-row
   condition scan, projection). These properties pin the two together on
   random views, signed databases (including negative counts), delta
   queries with literal slots, and fully-substituted literal-only queries
   — plus the deterministic workloads from [lib/workload], which every
   benchmark figure is computed over. *)

open Helpers
module R = Relational
module W = Workload

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let schemas = [| r1; r2; r3 |]

let qualified_cols (s : R.Schema.t) =
  List.map (fun c -> R.Attr.qualified s.R.Schema.name c) (R.Schema.attr_names s)

let view_gen =
  QCheck.Gen.(
    let* mask = int_range 1 7 in
    let sources =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
        (Array.to_list schemas)
    in
    let cols = List.concat_map qualified_cols sources in
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj = List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols in
    let operand =
      let* use_col = bool in
      if use_col then
        let* i = int_bound (List.length cols - 1) in
        return (R.Predicate.Col (List.nth cols i))
      else
        let* n = int_bound 4 in
        return (R.Predicate.Const (R.Value.Int n))
    in
    let conjunct =
      let* cmp = oneofl R.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] in
      let* a = operand in
      let* b = operand in
      return (R.Predicate.Cmp (cmp, a, b))
    in
    let* n_conj = int_bound 2 in
    let* conjs = list_size (return n_conj) conjunct in
    return
      (R.View.natural_join ~name:"PV" ~extra_cond:(R.Predicate.conj conjs)
         ~proj sources))

(* Base relations hold duplicate (count > 1) tuples; negative counts are
   rejected by [Db], so the negative paths are exercised through negated
   query terms and delete deltas below. *)
let base_bag_gen =
  QCheck.Gen.(
    let tuple = map R.Tuple.ints (list_size (return 2) (int_bound 4)) in
    let counted =
      let* t = tuple in
      let* c = int_range 1 3 in
      return (t, c)
    in
    let* rows = list_size (int_bound 5) counted in
    return
      (List.fold_left
         (fun acc (t, count) -> R.Bag.add ~count t acc)
         R.Bag.empty rows))

let db_gen =
  QCheck.Gen.(
    let* b1 = base_bag_gen in
    let* b2 = base_bag_gen in
    let* b3 = base_bag_gen in
    return (R.Db.of_list [ (r1, b1); (r2, b2); (r3, b3) ]))

let update_gen =
  QCheck.Gen.(
    let* rel = oneofl [ "r1"; "r2"; "r3" ] in
    let* row = list_size (return 2) (int_bound 4) in
    let* insert = bool in
    let tup = R.Tuple.ints row in
    return
      (if insert then R.Update.insert rel tup else R.Update.delete rel tup))

let print_setup (view, db, _) =
  Format.asprintf "%a@.%a" R.View.pp view R.Db.pp db

let arb_setup =
  QCheck.make ~print:print_setup
    QCheck.Gen.(
      let* view = view_gen in
      let* db = db_gen in
      let* updates = list_size (int_range 1 3) update_gen in
      return (view, db, updates))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let agree db q = R.Bag.equal (R.Eval.query db q) (Ref_eval.naive_query db q)

(* Planned view evaluation = naive reference; the negated difference
   query exercises negative result counts through both evaluators. *)
let view_equiv =
  QCheck.Test.make ~name:"planned view eval = naive reference" ~count:400
    arb_setup (fun (view, db, _) ->
      let q = R.Query.of_view view in
      agree db q && agree db (query_minus R.Query.empty q))

(* Delta queries substitute a literal slot per update; their plans come
   from the same cache entry as the view's own term. *)
let delta_equiv =
  QCheck.Test.make ~name:"planned delta eval = naive reference" ~count:400
    arb_setup (fun (view, db, updates) ->
      List.for_all
        (fun u ->
          let delta = R.Query.view_delta view u in
          agree db delta && agree (R.Db.apply ~strict:false db u) delta)
        updates)

(* Substituting every source relation leaves only literal slots; the
   warehouse evaluates those without a database at all. *)
let literal_equiv =
  QCheck.Test.make ~name:"literal-only eval = naive reference" ~count:300
    arb_setup (fun (view, db, updates) ->
      ignore db;
      let q =
        List.fold_left
          (fun q rel ->
            let u =
              match
                List.find_opt
                  (fun (u : R.Update.t) -> String.equal u.R.Update.rel rel)
                  updates
              with
              | Some u -> u
              | None -> R.Update.insert rel (R.Tuple.ints [ 1; 2 ])
            in
            R.Query.subst q u)
          (R.Query.of_view view)
          (List.map (fun (s : R.Schema.t) -> s.R.Schema.name)
             view.R.View.sources)
      in
      List.for_all R.Term.is_all_literals (R.Query.terms q)
      && R.Bag.equal (R.Eval.literal_query q)
           (Ref_eval.naive_query R.Db.empty q))

(* ------------------------------------------------------------------ *)
(* The executor's access paths                                         *)
(* ------------------------------------------------------------------ *)

(* Delta-first join order and index probes, checked against the naive
   cross product on terms the view generator above cannot produce:
   literal slots in any position, bag-supplied ("bound") base slots,
   two-column equi-joins, self-joins, residual filters, negative literal
   signs and join columns mixing Ints with numerically equal Floats.
   "ra" appears under two schemas with different column names, so a term
   holding both slots joins the relation with itself. Relations run past
   the size below which the database scans instead of indexing. *)
let ra = R.Schema.of_names "ra" [ "A1"; "A2" ]
let ra_self = R.Schema.of_names "ra" [ "P1"; "P2" ]
let rb = R.Schema.of_names "rb" [ "B1"; "B2" ]
let rc = R.Schema.of_names "rc" [ "C1"; "C2" ]

let mixed_value =
  QCheck.Gen.(
    let* n = int_bound 3 in
    oneofl [ R.Value.Int n; R.Value.Float (float_of_int n); R.Value.Float 1.5 ])

let mixed_tuple = QCheck.Gen.(map R.Tuple.of_list (list_size (return 2) mixed_value))

let mixed_bag ~max =
  QCheck.Gen.(
    let* rows = list_size (int_bound max) (pair mixed_tuple (int_range 1 3)) in
    return
      (List.fold_left (fun b (t, count) -> R.Bag.add ~count t b) R.Bag.empty rows))

type exec_case = {
  term : R.Term.t;
  bound : bool array;  (* slots handed to the executor as a bag *)
  db : R.Db.t;
}

let exec_case_gen =
  QCheck.Gen.(
    let* picked = shuffle_l [ ra; ra_self; rb; rc ] in
    let* n = int_range 2 3 in
    let schemas = List.filteri (fun i _ -> i < n) picked in
    let* slots =
      flatten_l
        (List.map
           (fun s ->
             let* lit = bool in
             if lit then
               let* neg = bool in
               let* t = mixed_tuple in
               return (R.Term.Lit (s, (if neg then R.Sign.Neg else R.Sign.Pos), t))
             else return (R.Term.Base s))
           schemas)
    in
    let* bound = flatten_l (List.map (fun _ -> bool) slots) in
    let cols = List.concat_map qualified_cols schemas in
    let col = map (List.nth cols) (int_bound (List.length cols - 1)) in
    (* Equi-joins between distinct slots, up to two per pair. *)
    let* joins =
      list_size (int_bound 3)
        (let* a = col in
         let* b = col in
         return (R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.Col a, R.Predicate.Col b)))
    in
    let* residual =
      list_size (int_bound 2)
        (let* cmp = oneofl R.Predicate.[ Eq; Neq; Lt; Ge ] in
         let* a = col in
         let* konst = bool in
         let* b =
           if konst then map (fun v -> R.Predicate.Const v) mixed_value
           else map (fun c -> R.Predicate.Col c) col
         in
         return (R.Predicate.Cmp (cmp, R.Predicate.Col a, b)))
    in
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj = List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols in
    let* neg = bool in
    let* ba = mixed_bag ~max:64 in
    let* bb = mixed_bag ~max:64 in
    let* bc = mixed_bag ~max:6 in
    return
      {
        term =
          {
            R.Term.sign = (if neg then R.Sign.Neg else R.Sign.Pos);
            proj;
            cond = R.Predicate.conj (joins @ residual);
            slots;
          };
        bound =
          Array.of_list
            (List.map2
               (fun slot b -> match slot with R.Term.Lit _ -> true | R.Term.Base _ -> b)
               slots bound);
        db = R.Db.of_list [ (ra, ba); (rb, bb); (rc, bc) ];
      })

let print_exec_case c =
  Format.asprintf "%a@.bound=[%s]@.%a" R.Term.pp c.term
    (String.concat ";" (Array.to_list (Array.map string_of_bool c.bound)))
    R.Db.pp c.db

(* [Eval.query] of one term and a direct [run_plan] that hands the bound base slots
   over as bags (the delta programs' [From_delta] shape) both equal the
   naive evaluation. *)
let executor_equiv =
  QCheck.Test.make ~name:"planned executor = naive on every access path"
    ~count:300
    (QCheck.make ~print:print_exec_case exec_case_gen)
    (fun { term; bound; db } ->
      let expected = Ref_eval.naive_term db term in
      let slots = Array.of_list term.R.Term.slots in
      let input i =
        match slots.(i) with
        | R.Term.Lit (_, g, t) -> R.Eval.Tuples (R.Bag.singleton ~count:(R.Sign.to_int g) t)
        | R.Term.Base s when bound.(i) ->
          R.Eval.Tuples (R.Db.contents db s.R.Schema.name)
        | R.Term.Base s -> R.Eval.Relation (db, s.R.Schema.name)
      in
      let bound_run =
        Ref_eval.run_plan (R.Plan.of_term ~bound term) ~input
          ~sign:(R.Sign.to_int term.R.Term.sign)
      in
      R.Bag.equal (R.Eval.query db [ term ]) expected && R.Bag.equal bound_run expected)

(* The deterministic generator behind every benchmark figure. *)
let workload_equiv () =
  List.iter
    (fun (c, k, skew, seed) ->
      let spec = W.Spec.make ~c ~j:4 ~k_updates:k ~seed ~skew () in
      let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
      let q = R.Query.of_view view in
      Alcotest.(check bool)
        (Printf.sprintf "example6 c=%d k=%d skew=%.1f" c k skew)
        true
        (agree db q
        && List.for_all
             (fun u -> agree db (R.Query.view_delta view u))
             updates
        && agree (R.Db.apply_all db updates) q))
    [
      (20, 5, 0.0, 42);
      (50, 10, 0.0, 7);
      (50, 10, 1.0, 7);
      (100, 5, 0.5, 1);
    ];
  let spec = W.Spec.make ~c:50 ~j:4 ~k_updates:10 ~insert_ratio:0.5 ~seed:3 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.keyed spec in
  Alcotest.(check bool)
    "keyed scenario" true
    (agree db (R.Query.of_view view)
    && List.for_all
         (fun u -> agree db (R.Query.view_delta view u))
         updates)

(* One compiled plan per skeleton and bound-slot mask: the view term,
   every update's delta term T<U> on one relation, and a staged program's
   explicit mask all meet in the cache, whatever the tuple or sign. *)
let of_term_memoizes () =
  let view =
    R.View.natural_join ~name:"M"
      ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Y" ]
      [ r1; r2 ]
  in
  let t = R.Term.of_view view in
  let delta u = Option.get (R.Term.subst t u) in
  let d_ins = delta (ins "r1" [ 1; 2 ]) in
  let d_del = delta (R.Update.delete "r1" (R.Tuple.ints [ 3; 4 ])) in
  let check = Alcotest.(check bool) in
  check "same term, same plan" true (R.Plan.of_term t == R.Plan.of_term t);
  check "two updates' delta terms share one plan" true
    (R.Plan.of_term d_ins == R.Plan.of_term d_del);
  check "the literal mask given explicitly meets them" true
    (R.Plan.of_term ~bound:[| true; false |] t == R.Plan.of_term d_ins);
  check "another mask, another plan" true
    (R.Plan.of_term t != R.Plan.of_term d_ins
    && R.Plan.of_term ~bound:[| false; true |] t != R.Plan.of_term d_ins)

let suite =
  List.map Helpers.qcheck
    [ view_equiv; delta_equiv; literal_equiv; executor_equiv ]
  @ [
      Alcotest.test_case "workload instances" `Quick workload_equiv;
      Alcotest.test_case "of_term memoizes per skeleton and mask" `Quick
        of_term_memoizes;
    ]
