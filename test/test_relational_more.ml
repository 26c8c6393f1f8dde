(* Second unit pass over the relational substrate: signs, comparison
   operators, bag combinators, view metadata, term accessors — the
   plumbing the first suite did not reach. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Signs (the Section 4.1 tables)                                      *)
(* ------------------------------------------------------------------ *)

let sign_tables () =
  let open R.Sign in
  check_bool "+*+ = +" true (equal (mult Pos Pos) Pos);
  check_bool "+*- = -" true (equal (mult Pos Neg) Neg);
  check_bool "-*+ = -" true (equal (mult Neg Pos) Neg);
  check_bool "-*- = +" true (equal (mult Neg Neg) Pos);
  check_bool "negate" true (equal (negate Pos) Neg);
  check_int "to_int +" 1 (to_int Pos);
  check_int "to_int -" (-1) (to_int Neg);
  check_bool "of_int 0 is +" true (equal (of_int 0) Pos);
  check_bool "of_int -3 is -" true (equal (of_int (-3)) Neg);
  Alcotest.(check string) "print" "-" (to_string Neg)

(* ------------------------------------------------------------------ *)
(* Comparison operators                                                *)
(* ------------------------------------------------------------------ *)

let cmp_holds_all () =
  let open R.Predicate in
  List.iter
    (fun (cmp, lt, eq_, gt) ->
      check_bool "lt" lt (cmp_holds cmp (-1));
      check_bool "eq" eq_ (cmp_holds cmp 0);
      check_bool "gt" gt (cmp_holds cmp 1))
    [
      (Eq, false, true, false);
      (Neq, true, false, true);
      (Lt, true, false, false);
      (Le, true, true, false);
      (Gt, false, false, true);
      (Ge, false, true, true);
    ]

let predicate_nesting () =
  let p =
    R.Parser.parse_predicate "NOT (a = 1 AND b = 2) OR (a = 9 AND NOT b = 9)"
  in
  let eval a b =
    R.Predicate.eval
      (fun attr ->
        match attr.R.Attr.name with
        | "a" -> R.Value.Int a
        | _ -> R.Value.Int b)
      p
  in
  check_bool "a=1 b=2 -> NOT(true) OR false = false" false (eval 1 2);
  check_bool "a=1 b=3 -> true" true (eval 1 3);
  check_bool "a=9 b=1 -> second disjunct" true (eval 9 1)

(* ------------------------------------------------------------------ *)
(* Bag combinators                                                     *)
(* ------------------------------------------------------------------ *)

let bag_map_filter () =
  let b = bag [ [ 1 ]; [ 2 ]; [ 2 ] ] in
  let doubled =
    R.Bag.map_tuples
      (fun t ->
        match R.Tuple.get t 0 with
        | R.Value.Int n -> R.Tuple.ints [ 2 * n ]
        | _ -> t)
      b
  in
  check_int "mapped counts preserved" 2 (R.Bag.count doubled (R.Tuple.ints [ 4 ]));
  let evens =
    R.Bag.filter
      (fun t -> match R.Tuple.get t 0 with R.Value.Int n -> n mod 2 = 0 | _ -> false)
      b
  in
  check_bag "filter keeps matching tuples" (bag [ [ 2 ]; [ 2 ] ]) evens

let bag_mem_compare () =
  let a = bag [ [ 1 ] ] and b = bag [ [ 2 ] ] in
  check_bool "mem positive" true (R.Bag.mem (R.Tuple.ints [ 1 ]) a);
  check_bool "mem negative count" true
    (R.Bag.mem (R.Tuple.ints [ 3 ]) (R.Bag.singleton ~count:(-1) (R.Tuple.ints [ 3 ])));
  check_bool "mem absent" false (R.Bag.mem (R.Tuple.ints [ 9 ]) a);
  check_bool "compare total order" true (R.Bag.compare a b <> 0);
  check_int "compare reflexive" 0 (R.Bag.compare a a)

let bag_zero_count_add () =
  check_bool "count 0 adds nothing" true
    (R.Bag.is_empty (R.Bag.add ~count:0 (R.Tuple.ints [ 1 ]) R.Bag.empty));
  check_int "distinct cardinality" 2
    (R.Bag.distinct_cardinality (bag [ [ 1 ]; [ 1 ]; [ 2 ] ]))

let bag_fold_iter () =
  let b = R.Bag.add ~count:(-2) (R.Tuple.ints [ 5 ]) (bag [ [ 1 ] ]) in
  let sum = R.Bag.fold (fun _ n acc -> acc + n) b 0 in
  check_int "fold over net counts" (-1) sum;
  let seen = ref 0 in
  R.Bag.iter (fun _ _ -> incr seen) b;
  check_int "iter visits distinct tuples" 2 !seen

(* ------------------------------------------------------------------ *)
(* Views: metadata                                                     *)
(* ------------------------------------------------------------------ *)

let view_output_names () =
  let v = view_wy () in
  Alcotest.(check (list string)) "unique names unqualified" [ "W"; "Y" ]
    (R.View.output_attr_names v);
  let dup =
    R.View.make ~name:"D"
      ~proj:[ R.Attr.qualified "r1" "X"; R.Attr.qualified "r2" "X" ]
      ~cond:R.Predicate.True [ r1; r2 ]
  in
  Alcotest.(check (list string))
    "duplicates qualified" [ "r1.X"; "r2.X" ]
    (R.View.output_attr_names dup)

let view_positions_and_mentions () =
  let v = view_wy () in
  Alcotest.(check (option int)) "W at 0" (Some 0)
    (R.View.proj_position v (R.Attr.qualified "r1" "W"));
  Alcotest.(check (option int)) "Y at 1" (Some 1)
    (R.View.proj_position v (R.Attr.qualified "r2" "Y"));
  Alcotest.(check (option int)) "X not projected" None
    (R.View.proj_position v (R.Attr.qualified "r1" "X"));
  check_bool "mentions r1" true (R.View.mentions v "r1");
  check_bool "does not mention r3" false (R.View.mentions v "r3");
  check_int "columns of the cross product" 4 (List.length (R.View.columns v))

let view_projection_repeats () =
  (* projecting the same attribute twice is legal SPJ *)
  let v =
    R.View.make ~name:"P"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r1" "W" ]
      ~cond:R.Predicate.True [ r1 ]
  in
  let db = db_of [ (r1, [ [ 7; 0 ] ]) ] in
  check_bag "duplicated column" (bag [ [ 7; 7 ] ]) (R.Eval.view db v)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let term_accessors () =
  let t = R.Term.of_view (view_w3 ()) in
  Alcotest.(check (list string)) "base relations" [ "r1"; "r2"; "r3" ]
    (R.Term.base_relations t);
  check_bool "not all literals" false (R.Term.is_all_literals t);
  check_bool "mentions r2 as base" true (R.Term.mentions_base t "r2");
  let t' = Option.get (R.Term.subst t (ins "r2" [ 2; 5 ])) in
  check_bool "r2 no longer base" false (R.Term.mentions_base t' "r2");
  check_bool "byte size shrinks or grows sanely" true (R.Term.byte_size t' > 0);
  Alcotest.(check string) "first slot's relation" "r1"
    (R.Term.slot_schema (List.hd t.R.Term.slots)).R.Schema.name

let term_subst_arity_check () =
  let t = R.Term.of_view (view_w ()) in
  match R.Term.subst t (ins "r2" [ 1 ]) with
  | exception R.Schema.Schema_error _ -> ()
  | _ -> Alcotest.fail "expected arity failure"

(* ------------------------------------------------------------------ *)
(* Printing smoke tests (coverage of the pp functions)                 *)
(* ------------------------------------------------------------------ *)

let pp_smoke () =
  let nonempty s = check_bool s true (String.length s > 0) in
  nonempty (R.Bag.to_string (bag [ [ 1 ] ]));
  nonempty (R.Tuple.to_string (R.Tuple.ints [ 1; 2 ]));
  nonempty (R.Update.to_string (del "r1" [ 1; 2 ]));
  nonempty (R.Schema.to_string r1);
  nonempty (R.View.to_string (view_w3 ()));
  nonempty (R.Term.to_string (R.Term.of_view (view_w ())));
  nonempty (R.Query.to_string (R.Query.of_view (view_w ())));
  nonempty (R.Predicate.to_string (R.Parser.parse_predicate "a = 1 OR NOT b < 2"));
  nonempty (Format.asprintf "%a" R.Db.pp (db_of [ (r1, [ [ 1; 2 ] ]) ]));
  nonempty (Format.asprintf "%a" Costmodel.Params.pp Costmodel.Params.default);
  nonempty (Format.asprintf "%a" Core.Metrics.pp Core.Metrics.zero);
  nonempty (Format.asprintf "%a" Workload.Spec.pp Workload.Spec.default)

let value_hash_consistent () =
  let vs =
    [ R.Value.Int 3; R.Value.Float 1.5; R.Value.Str "x"; R.Value.Bool true ]
  in
  List.iter
    (fun v -> check_int "hash self-consistent" (R.Value.hash v) (R.Value.hash v))
    vs;
  check_bool "tuple hash matches equality" true
    (R.Tuple.hash (R.Tuple.ints [ 1; 2 ]) = R.Tuple.hash (R.Tuple.ints [ 1; 2 ]))

let attr_ordering () =
  check_bool "unqualified before qualified" true
    (R.Attr.compare (R.Attr.unqualified "W") (R.Attr.qualified "r1" "W") <> 0);
  check_int "equal attrs" 0
    (R.Attr.compare (R.Attr.qualified "r1" "W") (R.Attr.of_string "r1.W"))

let suite =
  [
    Alcotest.test_case "sign tables" `Quick sign_tables;
    Alcotest.test_case "comparison operators" `Quick cmp_holds_all;
    Alcotest.test_case "predicate nesting" `Quick predicate_nesting;
    Alcotest.test_case "bag map/filter" `Quick bag_map_filter;
    Alcotest.test_case "bag mem/compare" `Quick bag_mem_compare;
    Alcotest.test_case "bag zero-count add" `Quick bag_zero_count_add;
    Alcotest.test_case "bag fold/iter" `Quick bag_fold_iter;
    Alcotest.test_case "view output names" `Quick view_output_names;
    Alcotest.test_case "view positions and mentions" `Quick
      view_positions_and_mentions;
    Alcotest.test_case "repeated projection" `Quick view_projection_repeats;
    Alcotest.test_case "term accessors" `Quick term_accessors;
    Alcotest.test_case "term subst arity check" `Quick term_subst_arity_check;
    Alcotest.test_case "pp smoke" `Quick pp_smoke;
    Alcotest.test_case "value hashing" `Quick value_hash_consistent;
    Alcotest.test_case "attr ordering" `Quick attr_ordering;
  ]
