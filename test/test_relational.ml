(* Unit tests for the relational substrate: values, tuples, attributes,
   schemas, predicates, updates, and database instances. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let value_order () =
  check_bool "ints by value" true (R.Value.compare (Int 1) (Int 2) < 0);
  check_bool "strings by value" true
    (R.Value.compare (Str "a") (Str "b") < 0);
  check_bool "cross-type order is stable" true
    (R.Value.compare (Int 5) (Str "a") < 0);
  check_bool "equal ints" true (R.Value.equal (Int 7) (Int 7))

let value_predicate_compare () =
  check_bool "int vs float numerically" true
    (R.Value.compare_for_predicate (Int 2) (Float 1.5) > 0);
  check_bool "float vs int numerically" true
    (R.Value.compare_for_predicate (Float 1.5) (Int 2) < 0);
  check_int "int/float equal" 0
    (R.Value.compare_for_predicate (Int 2) (Float 2.0))

let value_bytes () =
  check_int "int is 4 bytes" 4 (R.Value.byte_size (Int 12345));
  check_int "float is 8 bytes" 8 (R.Value.byte_size (Float 1.0));
  check_int "string is its length" 5 (R.Value.byte_size (Str "hello"));
  check_int "bool is 1 byte" 1 (R.Value.byte_size (Bool true))

let value_types () =
  Alcotest.(check (option string))
    "INT parses" (Some "INT")
    (Option.map R.Value.ty_to_string (R.Value.ty_of_string "integer"));
  Alcotest.(check (option string))
    "unknown type rejected" None
    (Option.map R.Value.ty_to_string (R.Value.ty_of_string "BLOB"))

(* ------------------------------------------------------------------ *)
(* Tuples                                                              *)
(* ------------------------------------------------------------------ *)

let tuple_basics () =
  let t = R.Tuple.ints [ 1; 2; 3 ] in
  check_int "arity" 3 (R.Tuple.arity t);
  Alcotest.check value_testable "get" (Int 2) (R.Tuple.get t 1);
  check_int "byte size" 12 (R.Tuple.byte_size t);
  Alcotest.check tuple_testable "project"
    (R.Tuple.ints [ 3; 1 ])
    (R.Tuple.project [| 2; 0 |] t)

let tuple_order () =
  let a = R.Tuple.ints [ 1; 2 ] and b = R.Tuple.ints [ 1; 3 ] in
  check_bool "lexicographic" true (R.Tuple.compare a b < 0);
  check_bool "shorter first" true
    (R.Tuple.compare (R.Tuple.ints [ 9 ]) a < 0);
  check_bool "equal" true (R.Tuple.equal a (R.Tuple.ints [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

let attr_parsing () =
  let q = R.Attr.of_string "r1.X" in
  Alcotest.(check (option string)) "qualified rel" (Some "r1") q.R.Attr.rel;
  Alcotest.(check string) "qualified name" "X" q.R.Attr.name;
  let u = R.Attr.of_string "X" in
  Alcotest.(check (option string)) "unqualified" None u.R.Attr.rel

let attr_matching () =
  check_bool "qualified matches" true
    (R.Attr.matches ~rel:"r1" ~name:"X" (R.Attr.qualified "r1" "X"));
  check_bool "wrong relation" false
    (R.Attr.matches ~rel:"r2" ~name:"X" (R.Attr.qualified "r1" "X"));
  check_bool "unqualified matches any relation" true
    (R.Attr.matches ~rel:"r9" ~name:"X" (R.Attr.unqualified "X"))

(* ------------------------------------------------------------------ *)
(* Schemas                                                             *)
(* ------------------------------------------------------------------ *)

let schema_validation () =
  Alcotest.check_raises "duplicate columns rejected"
    (R.Schema.Schema_error "relation r has duplicate column names") (fun () ->
      ignore (R.Schema.of_names "r" [ "A"; "A" ]));
  Alcotest.check_raises "key must be a column"
    (R.Schema.Schema_error "key attribute Z is not a column of r") (fun () ->
      ignore (R.Schema.of_names ~key:[ "Z" ] "r" [ "A" ]))

let schema_lookup () =
  Alcotest.(check (option int)) "column index" (Some 1)
    (R.Schema.column_index r1 "X");
  Alcotest.(check (option int)) "missing column" None
    (R.Schema.column_index r1 "Q");
  Alcotest.(check (list int)) "key positions" [ 0 ]
    (R.Schema.key_positions r1_wkey)

let schema_arity_check () =
  Alcotest.check_raises "arity mismatch"
    (R.Schema.Schema_error
       "tuple [1] has arity 1 but relation r1 has arity 2") (fun () ->
      R.Schema.check_tuple r1 (R.Tuple.ints [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let pred_eval () =
  let lookup a =
    match R.Attr.to_string a with
    | "r1.W" -> R.Value.Int 3
    | "r1.X" -> R.Value.Int 7
    | other -> Alcotest.failf "unexpected lookup %s" other
  in
  let p = R.Parser.parse_predicate "r1.W < r1.X AND NOT r1.W = 4" in
  check_bool "evaluates" true (R.Predicate.eval lookup p);
  let q = R.Parser.parse_predicate "r1.W >= 4 OR r1.X <> 7" in
  check_bool "false branch" false (R.Predicate.eval lookup q)

let pred_conjuncts () =
  let p = R.Parser.parse_predicate "a = b AND c = d AND e > 1" in
  check_int "three conjuncts" 3 (List.length (R.Predicate.conjuncts p));
  check_int "conj of empty is True" 0
    (List.length (R.Predicate.conjuncts (R.Predicate.conj [])))

let pred_attrs () =
  let p = R.Parser.parse_predicate "r1.W > r3.Z AND r1.X = 4" in
  check_int "attribute references" 3 (List.length (R.Predicate.attrs p))

(* ------------------------------------------------------------------ *)
(* Updates and database instances                                      *)
(* ------------------------------------------------------------------ *)

let update_signs () =
  check_bool "insert is positive" true
    (R.Sign.equal R.Sign.Pos (R.Update.sign (ins "r1" [ 1; 2 ])));
  check_bool "delete is negative" true
    (R.Sign.equal R.Sign.Neg (R.Update.sign (del "r1" [ 1; 2 ])))

let db_apply () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]) ] in
  let db = R.Db.apply db (ins "r1" [ 4; 2 ]) in
  check_bag "insert adds" (bag [ [ 1; 2 ]; [ 4; 2 ] ]) (R.Db.contents db "r1");
  let db = R.Db.apply db (del "r1" [ 1; 2 ]) in
  check_bag "delete removes" (bag [ [ 4; 2 ] ]) (R.Db.contents db "r1");
  check_int "total tuples" 1 (R.Db.total_tuples db)

let db_strict_delete () =
  let db = db_of [ (r1, []) ] in
  Alcotest.check_raises "strict delete of absent tuple"
    (R.Db.Db_error "delete of absent tuple: delete(r1, [9,9])") (fun () ->
      ignore (R.Db.apply db (del "r1" [ 9; 9 ])));
  let db' = R.Db.apply ~strict:false db (del "r1" [ 9; 9 ]) in
  check_bag "non-strict is a no-op" R.Bag.empty (R.Db.contents db' "r1")

let db_duplicates () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 1; 2 ] ]) ] in
  check_int "bag keeps duplicates" 2
    (R.Bag.count (R.Db.contents db "r1") (R.Tuple.ints [ 1; 2 ]));
  let db = R.Db.apply db (del "r1" [ 1; 2 ]) in
  check_int "delete removes one copy" 1
    (R.Bag.count (R.Db.contents db "r1") (R.Tuple.ints [ 1; 2 ]))

let db_unknown_relation () =
  Alcotest.check_raises "unknown relation"
    (R.Db.Db_error "unknown relation nope") (fun () ->
      ignore (R.Db.contents R.Db.empty "nope"))

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

(* [View.make] qualifies every attribute of the projection and the
   condition; [Selfmaint]'s pushdown classifies conjuncts by relation on
   that guarantee alone (EXPERIMENTS.md, selfmaint.ml's [None] case). *)
let view_resolution () =
  let v = view_wy () in
  Alcotest.(check (list string))
    "projection resolved and qualified"
    [ "r1.W"; "r2.Y" ]
    (List.map R.Attr.to_string v.R.View.proj);
  let col n = R.Predicate.Col (R.Attr.unqualified n) in
  let v =
    R.View.make ~proj:[ R.Attr.unqualified "W" ]
      ~cond:
        (R.Predicate.And
           ( R.Predicate.Cmp (R.Predicate.Gt, col "W", R.Predicate.Const (R.Value.Int 1)),
             R.Predicate.Cmp (R.Predicate.Lt, col "Y", col "W") ))
      [ r1; r2 ]
  in
  Alcotest.(check (list string))
    "condition resolved and qualified"
    [ "r1.W"; "r2.Y"; "r1.W" ]
    (List.map R.Attr.to_string (R.Predicate.attrs v.R.View.cond))

let view_ambiguity () =
  let dup = R.Schema.of_names "rr" [ "W"; "Q" ] in
  Alcotest.check_raises "ambiguous unqualified attribute"
    (R.View.View_error "attribute W is ambiguous; qualify it") (fun () ->
      ignore
        (R.View.make ~proj:[ R.Attr.unqualified "W" ] ~cond:R.Predicate.True
           [ r1; dup ]))

let view_duplicate_relations () =
  Alcotest.check_raises "duplicate relations rejected"
    (R.View.View_error
       "view V mentions a relation twice; the algorithms assume distinct \
        relations") (fun () ->
      ignore
        (R.View.make ~proj:[ R.Attr.qualified "r1" "W" ]
           ~cond:R.Predicate.True [ r1; r1 ]))

let view_key_coverage () =
  check_bool "W+Y view covers keys of keyed r1 and keyed r2" true
    (R.View.covers_all_keys (view_wy ~r1:r1_wkey ~r2:r2_ykey ()));
  check_bool "keyless view has no coverage" false
    (R.View.covers_all_keys (view_w ()));
  let v = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  Alcotest.(check (option (list int))) "r1 key at output 0" (Some [ 0 ])
    (R.View.key_positions v "r1");
  Alcotest.(check (option (list int))) "r2 key at output 1" (Some [ 1 ])
    (R.View.key_positions v "r2")

(* The one key-coverage test, row by row, and what the local rungs make
   of it: a compound view never key-deletes, even when every part
   projects the key — a deleted tuple's derivations spread over signed
   parts. *)
let view_key_positions () =
  let r3_yzkey = R.Schema.of_names ~key:[ "Y"; "Z" ] "r3" [ "Y"; "Z" ] in
  let wy = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let partly =
    R.View.natural_join ~name:"P"
      ~proj:[ R.Attr.qualified "r2" "Y"; R.Attr.qualified "r3" "Y" ]
      [ r2_ykey; r3_yzkey ]
  in
  let unkeyed = view_wy () in
  Alcotest.(check (list (pair string (option (list int))))) "key positions"
    [
      ("covered", Some [ 0 ]);
      ("partly covered", None);
      ("key of partner covered", Some [ 0 ]);
      ("no declared key", None);
      ("not a source", None);
    ]
    [
      ("covered", R.View.key_positions wy "r1");
      ("partly covered", R.View.key_positions partly "r3");
      ("key of partner covered", R.View.key_positions partly "r2");
      ("no declared key", R.View.key_positions unkeyed "r1");
      ("not a source", R.View.key_positions wy "r3");
    ];
  let key_deletes vd =
    List.filter_map
      (fun (c : R.Selfmaint.class_report) ->
        match c.R.Selfmaint.cls_plan with
        | R.Selfmaint.Use_key_delete -> Some c.R.Selfmaint.cls_rel
        | _ -> None)
      vd.R.Selfmaint.classes
  in
  let simple = R.Viewdef.simple wy in
  let compound = R.Viewdef.union simple simple in
  Alcotest.(check (list (pair string (list string))))
    "key-delete classes"
    [
      ("selfmaint simple", [ "r1"; "r2" ]);
      ("selfmaint compound", []);
      ("eca-local simple", [ "r1"; "r2" ]);
      ("eca-local compound", []);
    ]
    [
      ("selfmaint simple", key_deletes (R.Selfmaint.analyze simple));
      ("selfmaint compound", key_deletes (R.Selfmaint.analyze compound));
      ("eca-local simple", key_deletes (Core.Eca_sm.key_delete_table simple));
      ( "eca-local compound",
        key_deletes (Core.Eca_sm.key_delete_table compound) );
    ]

let view_natural_join_cond () =
  let v = view_w3 () in
  (* r1.X = r2.X and r2.Y = r3.Y: exactly two equi-join conjuncts. *)
  check_int "two join conjuncts" 2
    (List.length (R.Predicate.conjuncts v.R.View.cond))

(* [Fqueue.remove_first] against the list spelling, on queues built from
   interleaved pushes and pops so the front/back split varies. *)
let fqueue_remove_first_random () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 300 do
    let q = ref R.Fqueue.empty and model = ref [] in
    for i = 0 to Random.State.int st 30 do
      if Random.State.int st 4 = 0 then (
        match R.Fqueue.pop !q with
        | Some (_, rest) ->
          q := rest;
          model := List.tl !model
        | None -> ())
      else begin
        q := R.Fqueue.push !q i;
        model := !model @ [ i ]
      end
    done;
    let cut = Random.State.int st 32 in
    let found, rest = R.Fqueue.remove_first (fun x -> x >= cut) !q in
    let rec remove = function
      | x :: l when x >= cut -> (Some x, l)
      | x :: l ->
        let found, l = remove l in
        (found, x :: l)
      | [] -> (None, [])
    in
    let found', rest' = remove !model in
    Alcotest.(check (option int)) "remove_first = list remove" found' found;
    Alcotest.(check (list int)) "the others in order" rest' (R.Fqueue.to_list rest);
    check_int "length tracks" (List.length rest') (R.Fqueue.length rest)
  done

(* [Fqueue.remove_first]: the head case pops (front/back split kept),
   the middle case rebuilds without reordering the rest, the absent case
   returns the queue as it was, and only the oldest match goes. *)
let fqueue_remove_first () =
  let queue () =
    (* 1 and 2 sit in the front list after a pop, 3 and 4 in the back *)
    let q = List.fold_left R.Fqueue.push R.Fqueue.empty [ 0; 1; 2 ] in
    let q = snd (Option.get (R.Fqueue.pop q)) in
    List.fold_left R.Fqueue.push q [ 3; 4; 2 ]
  in
  let check label removed expected (got, q) =
    Alcotest.(check (option int)) (label ^ ": removed") removed got;
    Alcotest.(check (list int)) label expected (R.Fqueue.to_list q);
    check_int (label ^ ": length") (List.length expected) (R.Fqueue.length q)
  in
  check "head" (Some 1) [ 2; 3; 4; 2 ]
    (R.Fqueue.remove_first (Int.equal 1) (queue ()));
  check "middle" (Some 3) [ 1; 2; 4; 2 ]
    (R.Fqueue.remove_first (Int.equal 3) (queue ()));
  check "oldest match only" (Some 2) [ 1; 3; 4; 2 ]
    (R.Fqueue.remove_first (Int.equal 2) (queue ()));
  check "absent" None [ 1; 2; 3; 4; 2 ]
    (R.Fqueue.remove_first (Int.equal 9) (queue ()));
  check "empty" None [] (R.Fqueue.remove_first (Int.equal 0) R.Fqueue.empty);
  (* after a head removal the queue keeps working as a FIFO *)
  let _, q = R.Fqueue.remove_first (Int.equal 1) (queue ()) in
  check "push after head removal" None [ 2; 3; 4; 2; 5 ]
    (None, R.Fqueue.push q 5)

(* [Fenwick] flags against a bool-array model: after every flip the live
   count, every slot's flag and the slot of every live rank agree. *)
let fenwick_flags_match_model () =
  let st = Random.State.make [| 23 |] in
  List.iter
    (fun n ->
      let t = R.Fenwick.create n and model = Array.make n false in
      for step = 1 to 400 do
        let i = Random.State.int st n and live = Random.State.bool st in
        R.Fenwick.set t i live;
        model.(i) <- live;
        let ranks =
          List.filter (fun i -> model.(i)) (List.init n (fun i -> i))
        in
        let at = Printf.sprintf " (n %d, step %d)" n step in
        check_int ("count" ^ at) (List.length ranks) (R.Fenwick.count t);
        Array.iteri
          (fun i b -> check_bool ("mem" ^ at) b (R.Fenwick.mem t i))
          model;
        List.iteri
          (fun j i -> check_int ("select" ^ at) i (R.Fenwick.select t j))
          ranks
      done;
      match R.Fenwick.select t (R.Fenwick.count t) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "select past the live count must raise")
    [ 1; 2; 5; 64; 100 ]

(* [Fenwick.Slots] against a list model through 20k pushes with random
   removals. Each round fills to a random size with some takes mixed in,
   then drains to empty with some pushes mixed in: the array grows in
   the rounds that outsize it, compacts in place in the smaller rounds
   after them, and restarts at slot 0 whenever a round empties it. *)
let fenwick_slots_match_list () =
  let st = Random.State.make [| 29 |] in
  let s = R.Fenwick.Slots.create (-1) in
  (* the model: the remaining pushes, oldest first *)
  let model = ref [] and len = ref 0 and pushed = ref 0 and taken = ref 0 in
  let take () =
    (* mostly the head, as an in-order receiver takes *)
    let j = if Random.State.bool st then 0 else Random.State.int st !len in
    let want = List.nth !model j in
    model := List.filteri (fun k _ -> k <> j) !model;
    decr len;
    check_int "take = list removal" want (R.Fenwick.Slots.take s j);
    incr taken
  in
  let push () =
    R.Fenwick.Slots.push s !pushed;
    model := !model @ [ !pushed ];
    incr len;
    incr pushed
  in
  let step push_pct =
    if !len = 0 || Random.State.int st 100 < push_pct then push () else take ();
    check_int "length" !len (R.Fenwick.Slots.length s)
  in
  while !pushed < 20_000 do
    let target = [| 10; 100; 1_000; 2_500 |].(Random.State.int st 4) in
    while !len < target do
      step 80
    done;
    while !len > 0 do
      step 20
    done
  done;
  check_int "every push taken once" !pushed !taken

let suite =
  [
    Alcotest.test_case "value ordering" `Quick value_order;
    Alcotest.test_case "fenwick flags = bool-array model" `Quick
      fenwick_flags_match_model;
    Alcotest.test_case "fenwick slots = list model (20k pushes)" `Quick
      fenwick_slots_match_list;
    Alcotest.test_case "value predicate comparison" `Quick
      value_predicate_compare;
    Alcotest.test_case "value byte sizes" `Quick value_bytes;
    Alcotest.test_case "value type names" `Quick value_types;
    Alcotest.test_case "tuple basics" `Quick tuple_basics;
    Alcotest.test_case "tuple ordering" `Quick tuple_order;
    Alcotest.test_case "attribute parsing" `Quick attr_parsing;
    Alcotest.test_case "attribute matching" `Quick attr_matching;
    Alcotest.test_case "schema validation" `Quick schema_validation;
    Alcotest.test_case "schema lookup" `Quick schema_lookup;
    Alcotest.test_case "schema arity check" `Quick schema_arity_check;
    Alcotest.test_case "predicate evaluation" `Quick pred_eval;
    Alcotest.test_case "predicate conjuncts" `Quick pred_conjuncts;
    Alcotest.test_case "predicate attributes" `Quick pred_attrs;
    Alcotest.test_case "update signs" `Quick update_signs;
    Alcotest.test_case "db apply" `Quick db_apply;
    Alcotest.test_case "db strict delete" `Quick db_strict_delete;
    Alcotest.test_case "db duplicate tuples" `Quick db_duplicates;
    Alcotest.test_case "db unknown relation" `Quick db_unknown_relation;
    Alcotest.test_case "view attribute resolution" `Quick view_resolution;
    Alcotest.test_case "view ambiguity rejected" `Quick view_ambiguity;
    Alcotest.test_case "view duplicate relations rejected" `Quick
      view_duplicate_relations;
    Alcotest.test_case "view key coverage" `Quick view_key_coverage;
    Alcotest.test_case "view key positions" `Quick view_key_positions;
    Alcotest.test_case "natural join condition" `Quick view_natural_join_cond;
    Alcotest.test_case "fqueue remove_first = list" `Quick fqueue_remove_first_random;
    Alcotest.test_case "fqueue remove_first" `Quick fqueue_remove_first;
  ]
