(* Terms, queries and the substitution operator Q<U> of Section 4.2,
   including Lemma B.2 — the identity the whole compensation scheme rests
   on — as a qcheck property. *)

open Helpers
module R = Relational

let view = view_w3 ()

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let subst_replaces_relation () =
  let q = R.Query.view_delta view (ins "r2" [ 2; 5 ]) in
  check_int "one term" 1 (R.Query.term_count q);
  let t = List.hd (R.Query.terms q) in
  Alcotest.(check (list string))
    "r2 became a literal; r1 and r3 remain"
    [ "r1"; "r3" ]
    (R.Term.base_relations t)

let subst_same_relation_vanishes () =
  let q = R.Query.view_delta view (ins "r2" [ 2; 5 ]) in
  check_bool "substituting r2 again yields the empty query" true
    (R.Query.is_empty (R.Query.subst q (ins "r2" [ 9; 9 ])));
  (* Q<U1,...,Uk> with two updates on the same relation is empty. *)
  check_bool "subst_all with duplicate relation" true
    (R.Query.is_empty
       (Ref_eval.subst_all (R.Query.of_view view)
          [ ins "r2" [ 2; 5 ]; ins "r1" [ 1; 1 ]; ins "r2" [ 3; 3 ] ]))

let subst_unrelated_relation_vanishes () =
  let v12 = view_w () in
  let q = R.Query.of_view v12 in
  check_bool "update on a relation outside the view" true
    (R.Query.is_empty (R.Query.subst q (ins "r3" [ 1; 1 ])))

let negation_flips_signs () =
  let q = R.Query.view_delta view (ins "r1" [ 4; 2 ]) in
  let n = R.Query.negate q in
  List.iter2
    (fun (a : R.Term.t) (b : R.Term.t) ->
      check_bool "sign flipped" true
        (R.Sign.equal a.R.Term.sign (R.Sign.negate b.R.Term.sign)))
    (R.Query.terms q) (R.Query.terms n)

let delete_substitutes_negative_literal () =
  let q = R.Query.view_delta view (del "r1" [ 1; 2 ]) in
  let t = List.hd (R.Query.terms q) in
  let lit_sign =
    List.find_map
      (function
        | R.Term.Lit (_, s, _) -> Some s
        | R.Term.Base _ -> None)
      t.R.Term.slots
  in
  check_bool "literal carries the minus sign" true
    (match lit_sign with Some s -> R.Sign.equal s R.Sign.Neg | None -> false)

let split_local_detects_literal_terms () =
  let q = R.Query.of_view view in
  let q = R.Query.subst q (ins "r1" [ 4; 2 ]) in
  let q = R.Query.subst q (ins "r2" [ 2; 5 ]) in
  let q = R.Query.subst q (ins "r3" [ 5; 3 ]) in
  let local, remote = R.Query.split_local q in
  check_int "fully substituted term is local" 1 (R.Query.term_count local);
  check_bool "nothing remote" true (R.Query.is_empty remote)

let view_delta_of_single_relation_view_is_local () =
  let v =
    R.View.make ~name:"V1"
      ~proj:[ R.Attr.unqualified "W" ]
      ~cond:(R.Parser.parse_predicate "X = 2")
      [ r1 ]
  in
  let local, remote = R.Query.split_local (R.Query.view_delta v (ins "r1" [ 7; 2 ])) in
  check_bool "no base slot left" true (R.Query.is_empty remote);
  check_bag "literal evaluation"
    (bag [ [ 7 ] ])
    (R.Eval.literal_query local)

let simplify_cancels_pairs () =
  let t = R.Term.of_view view in
  check_int "T + (-T) cancels" 0
    (R.Query.term_count (R.Query.simplify [ t; R.Term.negate t ]));
  check_int "T + (-T) + T keeps one copy" 1
    (R.Query.term_count (R.Query.simplify [ t; R.Term.negate t; t ]));
  check_int "distinct terms kept" 2
    (R.Query.term_count
       (R.Query.simplify
          (R.Query.plus
             (R.Query.view_delta view (ins "r1" [ 1; 1 ]))
             (R.Query.view_delta view (ins "r2" [ 1; 1 ])))))

let query_byte_size_grows_with_terms () =
  let q1 = R.Query.view_delta view (ins "r1" [ 4; 2 ]) in
  let q2 = R.Query.minus q1 (R.Query.subst q1 (ins "r2" [ 2; 5 ])) in
  check_bool "more terms, more bytes" true
    (R.Query.byte_size q2 > R.Query.byte_size q1)

(* ------------------------------------------------------------------ *)
(* Lemma B.2: Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]                     *)
(* ------------------------------------------------------------------ *)

let tuple2_gen range = QCheck.Gen.(map R.Tuple.ints (list_size (return 2) (int_bound range)))

(* A random instance of the chain schema plus an applicable update. *)
let instance_gen =
  QCheck.Gen.(
    let* rows1 = list_size (int_bound 6) (tuple2_gen 4) in
    let* rows2 = list_size (int_bound 6) (tuple2_gen 4) in
    let* rows3 = list_size (int_bound 6) (tuple2_gen 4) in
    let db =
      R.Db.of_list
        [
          (r1, R.Bag.of_list rows1);
          (r2, R.Bag.of_list rows2);
          (r3, R.Bag.of_list rows3);
        ]
    in
    let* rel = oneofl [ "r1"; "r2"; "r3" ] in
    let* tuple = tuple2_gen 4 in
    let* kind_insert = bool in
    let u =
      if kind_insert || R.Bag.count (R.Db.contents db rel) tuple <= 0 then
        R.Update.insert rel tuple
      else R.Update.delete rel tuple
    in
    (* A query shaped like the ones ECA builds: V<U'> for some other
       update, possibly with compensating terms. *)
    let* rel' = oneofl [ "r1"; "r2"; "r3" ] in
    let* tuple' = tuple2_gen 4 in
    let q0 = R.Query.view_delta view (R.Update.insert rel' tuple') in
    let q = if R.Query.is_empty q0 then R.Query.of_view view else q0 in
    return (db, u, q))

let arb_instance =
  QCheck.make
    ~print:(fun (db, u, q) ->
      Format.asprintf "%a / %a / %a" R.Db.pp db R.Update.pp u R.Query.pp q)
    instance_gen

let lemma_b2 =
  QCheck.Test.make ~name:"Lemma B.2: Q[ss] = Q[ss+U] - Q<U>[ss+U]" ~count:300
    arb_instance (fun (db, u, q) ->
      let before = R.Eval.query db q in
      let db' = R.Db.apply ~strict:false db u in
      let after = R.Eval.query db' q in
      let comp = R.Eval.query db' (R.Query.subst q u) in
      R.Bag.equal before (R.Bag.minus after comp))

let simplify_preserves_value =
  QCheck.Test.make ~name:"simplify preserves query value" ~count:300
    arb_instance (fun (db, u, q) ->
      (* amplify with duplicated and negated copies *)
      let q = R.Query.plus q (R.Query.plus (R.Query.negate q) (R.Query.subst q u)) in
      R.Bag.equal (R.Eval.query db q) (R.Eval.query db (R.Query.simplify q)))

let lemma_b2_full_view =
  QCheck.Test.make ~name:"Lemma B.2 for the full view query" ~count:300
    arb_instance (fun (db, u, _) ->
      let q = R.Query.of_view view in
      let before = R.Eval.query db q in
      let db' = R.Db.apply ~strict:false db u in
      let after = R.Eval.query db' q in
      let comp = R.Eval.query db' (R.Query.subst q u) in
      R.Bag.equal before (R.Bag.minus after comp))

let suite =
  [
    Alcotest.test_case "subst replaces the relation slot" `Quick
      subst_replaces_relation;
    Alcotest.test_case "subst on an already-substituted relation vanishes"
      `Quick subst_same_relation_vanishes;
    Alcotest.test_case "subst on an unrelated relation vanishes" `Quick
      subst_unrelated_relation_vanishes;
    Alcotest.test_case "negation flips term signs" `Quick negation_flips_signs;
    Alcotest.test_case "deletes substitute negative literals" `Quick
      delete_substitutes_negative_literal;
    Alcotest.test_case "split_local finds literal-only terms" `Quick
      split_local_detects_literal_terms;
    Alcotest.test_case "single-relation view deltas are local" `Quick
      view_delta_of_single_relation_view_is_local;
    Alcotest.test_case "simplify cancels opposite terms" `Quick
      simplify_cancels_pairs;
    Alcotest.test_case "query byte size grows with terms" `Quick
      query_byte_size_grows_with_terms;
  ]
  @ List.map Helpers.qcheck
      [ lemma_b2; lemma_b2_full_view; simplify_preserves_value ]
