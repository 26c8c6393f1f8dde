(* The cardinality is O(1): the database keeps each relation's net
   count. The distinct count is O(1) only once the column is indexed
   (relations of at least [Db.scan_below] distinct tuples, without
   negative counts); below that, [Db.distinct_values] dedupes the
   column on every call. *)
let cardinality db rel = Relational.Db.cardinality db rel

let distinct_values db rel attr =
  let schema = Relational.Db.schema db rel in
  match Relational.Schema.column_index schema attr with
  | None -> 0
  | Some i -> Relational.Db.distinct_values db rel i

(* J(r, a): expected number of r tuples matching a particular value of
   attribute a — cardinality divided by the number of distinct values
   (1.0 for empty relations, so probe costs stay conservative). *)
let join_factor db rel attr =
  let c = cardinality db rel in
  let d = distinct_values db rel attr in
  if c = 0 || d = 0 then 1.0 else float_of_int c /. float_of_int d

(* Selectivity of a view's non-join condition, measured on the current
   instance: fraction of cross-product rows satisfying the full condition
   relative to those satisfying only the equi-join conjuncts. Used for
   reporting; the I/O model follows the paper in charging selections
   nothing. *)
let selectivity db (v : Relational.View.t) =
  let joined =
    let join_only =
      Relational.Predicate.conj
        (List.filter
           (function
             | Relational.Predicate.Cmp
                 (Relational.Predicate.Eq, Relational.Predicate.Col _,
                  Relational.Predicate.Col _) ->
               true
             | _ -> false)
           (Relational.Predicate.conjuncts v.Relational.View.cond))
    in
    let relaxed =
      Relational.View.make ~name:"__sel" ~proj:v.Relational.View.proj
        ~cond:join_only v.Relational.View.sources
    in
    Relational.Bag.net_cardinality (Relational.Eval.view db relaxed)
  in
  if joined = 0 then 1.0
  else
    let kept =
      Relational.Bag.net_cardinality (Relational.Eval.view db v)
    in
    float_of_int kept /. float_of_int joined
