(* Prepared term skeletons against the per-term computations they
   replaced (ref_prepared.ml): ECA's guard templates, the one-row
   literal path, the source's plan-carried join edges and the
   warehouse's widening memo. Each property runs many terms of one
   skeleton through one owner's table, so both its first (preparing) and
   its later (prepared) lookups are checked. *)

module R = Relational
module Pe = Test_plan_equiv

let sign_of b = if b then R.Sign.Neg else R.Sign.Pos

(* The outcome of an evaluation, its exception printed. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_outcome eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

(* [base] with the slots in [mask] replaced by literal tuples drawn from
   [st]: projection, condition and schemas stay [base]'s own. *)
let substitute st (base : R.Term.t) mask =
  let value () =
    let n = Random.State.int st 3 in
    if Random.State.bool st then R.Value.Int n else R.Value.Float (float_of_int n)
  in
  {
    base with
    R.Term.sign = sign_of (Random.State.bool st);
    slots =
      List.mapi
        (fun i slot ->
          if mask land (1 lsl i) = 0 then slot
          else
            let s = R.Term.slot_schema slot in
            R.Term.Lit
              ( s,
                sign_of (Random.State.bool st),
                R.Tuple.of_list (List.init (R.Schema.arity s) (fun _ -> value ())) ))
        base.R.Term.slots;
  }

(* ------------------------------------------------------------------ *)
(* ECA's guard templates                                               *)
(* ------------------------------------------------------------------ *)

let guard_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (r, g), Some (r', g') ->
    String.equal r r'
    && List.equal (fun (c, v) (c', v') -> c = c' && R.Value.equal v v') g g'
  | Some _, None | None, Some _ -> false

(* Every literal mask of a random 1–3-relation view's term, twice over
   with fresh literals, through one instance: the staged guard equals
   the one resolved from the term's layout. *)
let guard_matches_reference =
  QCheck.Test.make ~name:"staged guard = per-term guard, every literal mask" ~count:300
    (QCheck.make
       ~print:(fun (v, seed) -> Format.asprintf "%a@.seed %d" R.View.pp v seed)
       QCheck.Gen.(pair Pe.view_gen int))
    (fun (view, seed) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Core.Eca.create
          (Core.Algorithm.Config.make ~view:(R.Viewdef.simple view) ~init_mv:R.Bag.empty ())
      in
      let base = R.Term.of_view view in
      let masks = List.init (1 lsl List.length base.R.Term.slots) Fun.id in
      List.for_all
        (fun mask ->
          let term = substitute st base mask in
          guard_equal (Core.Eca.guard inst term) (Ref_prepared.shape term))
        (masks @ masks))

(* ------------------------------------------------------------------ *)
(* The one-row literal path                                            *)
(* ------------------------------------------------------------------ *)

(* An all-literal term over 1–3 of [ra], [ra_self], [rb], [rc]: Int and
   Float values (join keys meet across the two), equi-joins, residual
   filters, maybe a constant-false or constant-true conjunct, negative
   slot and term signs. With [bad_arity] the first slot's tuple has a
   column too many and no conjunct is constant. *)
let literal_term_gen ~bad_arity =
  QCheck.Gen.(
    let* picked = shuffle_l [ Pe.ra; Pe.ra_self; Pe.rb; Pe.rc ] in
    let* n = int_range 1 3 in
    let schemas = List.filteri (fun i _ -> i < n) picked in
    let* slots =
      flatten_l
        (List.mapi
           (fun i s ->
             let* neg = bool in
             let* t = Pe.mixed_tuple in
             let t = if bad_arity && i = 0 then R.Tuple.concat t [| R.Value.Int 0 |] else t in
             return (R.Term.Lit (s, sign_of neg, t)))
           schemas)
    in
    let cols = List.concat_map Pe.qualified_cols schemas in
    let col = map (List.nth cols) (int_bound (List.length cols - 1)) in
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
           if konst then map (fun v -> R.Predicate.Const v) Pe.mixed_value
           else map (fun c -> R.Predicate.Col c) col
         in
         return (R.Predicate.Cmp (cmp, R.Predicate.Col a, b)))
    in
    let* constant =
      if bad_arity then return []
      else
        oneofl
          [
            [];
            [];
            [ R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.int 1, R.Predicate.int 2) ];
            [ R.Predicate.Cmp (R.Predicate.Le, R.Predicate.int 1, R.Predicate.int 2) ];
          ]
    in
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj = List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols in
    let* neg = bool in
    return
      {
        R.Term.sign = sign_of neg;
        proj;
        cond = R.Predicate.conj (joins @ constant @ residual);
        slots;
      })

let literal_query_gen =
  QCheck.Gen.(
    let* bad = map (fun n -> n = 0) (int_bound 5) in
    if bad then map (fun t -> [ t ]) (literal_term_gen ~bad_arity:true)
    else list_size (int_range 1 3) (literal_term_gen ~bad_arity:false))

let literal_matches_naive =
  QCheck.Test.make ~name:"one-row literal eval = naive and run_plan references" ~count:500
    (QCheck.make
       ~print:(fun q -> Format.asprintf "%a" R.Query.pp q)
       literal_query_gen)
    (fun q ->
      let one_row = outcome (fun () -> R.Eval.literal_query q) in
      same_outcome R.Bag.equal one_row (outcome (fun () -> R.Eval.naive_query R.Db.empty q))
      && same_outcome R.Bag.equal one_row (outcome (fun () -> Ref_prepared.literal_query q)))

(* ------------------------------------------------------------------ *)
(* The source's executor                                              *)
(* ------------------------------------------------------------------ *)

type source_case = {
  catalog : Storage.Catalog.t;
  db : R.Db.t;
  bases : R.Term.t list;
      (* the view terms the queries substitute, two projections per
         condition *)
  queries : (int * int * int) list list;  (* (base, literal mask, seed) per term *)
}

let source_case_gen =
  QCheck.Gen.(
    let base_gen =
      let* picked = shuffle_l [ Pe.ra; Pe.ra_self; Pe.rb; Pe.rc ] in
      let* n = int_range 1 3 in
      let schemas = List.filteri (fun i _ -> i < n) picked in
      let cols = List.concat_map Pe.qualified_cols schemas in
      let col = map (List.nth cols) (int_bound (List.length cols - 1)) in
      let* joins =
        list_size (int_bound 3)
          (let* a = col in
           let* b = col in
           return (R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.Col a, R.Predicate.Col b)))
      in
      let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
      let* widened_mask = int_range 1 ((1 lsl List.length cols) - 1) in
      let proj mask = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) cols in
      let term =
        {
          R.Term.sign = R.Sign.Pos;
          proj = proj proj_mask;
          cond = R.Predicate.conj joins;
          slots = List.map (fun s -> R.Term.Base s) schemas;
        }
      in
      (* the same skeleton under a second projection, as a widened
         query carries it *)
      return [ term; { term with R.Term.proj = proj widened_mask } ]
    in
    let* bases = map List.concat (list_size (int_range 1 2) base_gen) in
    let term = triple (int_bound (List.length bases - 1)) (int_bound 7) int in
    let* queries = list_size (int_range 1 5) (list_size (int_range 1 3) term) in
    let* mode = oneofl Storage.Catalog.[ Indexed_memory; Limited_memory ] in
    let* keeps = list_size (return 4) bool in
    let indexes =
      List.filteri
        (fun i _ -> List.nth keeps i)
        Storage.Index.
          [
            clustered "ra" "A1";
            unclustered "rb" "B1";
            clustered "rc" "C2";
            unclustered "ra" "A2";
          ]
    in
    let* share_scans = bool in
    let* count_outer_reads = bool in
    let* ba = Pe.mixed_bag ~max:64 in
    let* bb = Pe.mixed_bag ~max:64 in
    let* bc = Pe.mixed_bag ~max:6 in
    return
      {
        catalog = Storage.Catalog.make ~mode ~indexes ~share_scans ~count_outer_reads ();
        db = R.Db.of_list [ (Pe.ra, ba); (Pe.rb, bb); (Pe.rc, bc) ];
        bases;
        queries;
      })

let print_source_case c =
  Format.asprintf "%a@.%a@.%s" Storage.Catalog.pp c.catalog
    (Format.pp_print_list R.Term.pp) c.bases
    (String.concat " | "
       (List.map
          (fun q ->
            String.concat ", "
              (List.map (fun (b, m, s) -> Printf.sprintf "(%d,%d,%d)" b m s) q))
          c.queries))

let result_equal (a : Storage.Executor.result) (b : Storage.Executor.result) =
  R.Bag.equal a.Storage.Executor.answer b.Storage.Executor.answer
  && Storage.Cost.equal a.Storage.Executor.cost b.Storage.Executor.cost
  && List.equal
       (fun (t, p) (t', p') -> t == t' && compare p p' = 0)
       a.Storage.Executor.plans b.Storage.Executor.plans

(* A stream of queries over one source, twice over: each answer, cost
   and plan list, with the plan and join edges of one plan-cache lookup
   per term, equals the per-term reference's, which plans and evaluates
   each term on its own. *)
let prepared_source_matches =
  QCheck.Test.make ~name:"executor answers and costs = per-term reference" ~count:300
    (QCheck.make ~print:print_source_case source_case_gen)
    (fun c ->
      let queries =
        List.map
          (List.map (fun (b, mask, seed) ->
               substitute (Random.State.make [| seed |]) (List.nth c.bases b) mask))
          c.queries
      in
      List.for_all
        (fun q ->
          result_equal (Storage.Executor.run c.catalog c.db q)
            (Ref_prepared.executor_run c.catalog c.db q))
        (queries @ queries))

(* ------------------------------------------------------------------ *)
(* The widening memo                                                   *)
(* ------------------------------------------------------------------ *)

let widening_equal ~shipped a b =
  match (a, b) with
  | None, None -> true
  | Some (s, cols), Some (s', cols') ->
    R.Query.equal s s' && cols = cols' && (s == shipped) = (s' == shipped)
  | Some _, None | None, Some _ -> false

(* A shipped query of 1–3 substituted terms and a stream of riders: the
   same terms under one of a few projection lists (each list shared by
   every rider that uses it, as a view's riders share the view's), or
   with one term's sign flipped (no skeleton match). Riding as the
   warehouse does — the shipped query takes each widened form — the
   memo's widening equals a fresh one and the reference, for two
   shipped queries in turn. *)
let memo_widening_matches =
  QCheck.Test.make ~name:"memoized widening = fresh Query.widen" ~count:300
    (QCheck.make
       ~print:(fun (v, seed, _) -> Format.asprintf "%a@.seed %d" R.View.pp v seed)
       QCheck.Gen.(
         triple Pe.view_gen int
           (list_size (int_range 1 8)
              (pair (int_bound 3) (map (fun n -> n = 0) (int_bound 4))))))
    (fun (view, seed, riders) ->
      let st = Random.State.make [| seed |] in
      let base = R.Term.of_view view in
      let cols = List.concat_map Pe.qualified_cols view.R.View.sources in
      let projs =
        Array.init 4 (fun _ ->
            let picked = List.filter (fun _ -> Random.State.bool st) cols in
            if picked = [] then [ List.hd cols ] else picked)
      in
      let memo = R.Query.widenings () in
      let n = 1 + Random.State.int st 3 in
      let round () =
        let terms =
          List.init n (fun _ ->
              substitute st base (Random.State.int st (1 lsl List.length base.R.Term.slots)))
        in
        let with_proj proj = List.map (fun (t : R.Term.t) -> { t with R.Term.proj }) terms in
        let shipped = ref (with_proj projs.(0)) in
        List.for_all
          (fun (k, flip) ->
            let q = with_proj projs.(k) in
            let q = if flip then R.Term.negate (List.hd q) :: List.tl q else q in
            let fresh = R.Query.widen (R.Query.widenings ()) ~shipped:!shipped q in
            let memoized = R.Query.widen memo ~shipped:!shipped q in
            let ok =
              widening_equal ~shipped:!shipped memoized fresh
              && widening_equal ~shipped:!shipped memoized
                   (Ref_prepared.widen ~shipped:!shipped q)
            in
            Option.iter (fun (s, _) -> shipped := s) memoized;
            ok)
          riders
      in
      round () && round ())

let suite =
  List.map Helpers.qcheck
    [
      guard_matches_reference;
      literal_matches_naive;
      prepared_source_matches;
      memo_widening_matches;
    ]
