(* The physical layer: block math, index probe pricing, and — most
   importantly — the planner's I/O charges checked against the exact
   numbers derived in Appendix D for Example 6 (C=100, J=4, K=20, so
   I=5, I'=3). *)

open Helpers
module R = Relational

let spec = Workload.Spec.make ~c:100 ~j:4 ~seed:7 ()
let setup () = Workload.Scenarios.example6 spec
let cat1 = Workload.Scenarios.catalog_scenario1 ()
let cat2 = Workload.Scenarios.catalog_scenario2 ()

let view = (setup () : Workload.Scenarios.setup).view

let t1 = R.Tuple.ints [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Blocks and indexes                                                  *)
(* ------------------------------------------------------------------ *)

let block_math () =
  let b = Storage.Block.make ~tuples_per_block:20 in
  check_int "I = ceil(100/20)" 5 (Storage.Block.blocks_for b ~tuples:100);
  check_int "I of 101" 6 (Storage.Block.blocks_for b ~tuples:101);
  check_int "I of 0" 0 (Storage.Block.blocks_for b ~tuples:0);
  Alcotest.check_raises "K must be positive"
    (Storage.Block.Invalid_block_model "tuples_per_block must be positive")
    (fun () -> ignore (Storage.Block.make ~tuples_per_block:0))

let index_probe_costs () =
  let b = Storage.Block.default in
  let cl = Storage.Index.clustered "r2" "X" in
  let un = Storage.Index.unclustered "r2" "Y" in
  check_int "clustered: ceil(J/K)" 1 (Storage.Index.probe_io cl ~block:b ~matches:4);
  check_int "clustered: 2 blocks for 25 matches" 2
    (Storage.Index.probe_io cl ~block:b ~matches:25);
  check_int "unclustered: one IO per match" 4
    (Storage.Index.probe_io un ~block:b ~matches:4);
  check_int "zero matches, zero IO" 0
    (Storage.Index.probe_io cl ~block:b ~matches:0)

let catalog_prefers_clustered () =
  let cat =
    Storage.Catalog.make
      ~indexes:
        [ Storage.Index.unclustered "r2" "X"; Storage.Index.clustered "r2" "X" ]
      ()
  in
  match Storage.Catalog.index_on cat ~rel:"r2" ~attr:"X" with
  | Some i -> check_bool "clustered preferred" true i.Storage.Index.clustered
  | None -> Alcotest.fail "expected an index"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let measured_stats () =
  let { Workload.Scenarios.db; _ } = setup () in
  check_int "C(r1) = 100" 100 (Storage.Stats.cardinality db "r1");
  let j = Storage.Stats.join_factor db "r2" "X" in
  check_bool "J(r2,X) close to 4" true (j > 2.5 && j < 6.0);
  let sigma = Storage.Stats.selectivity db view in
  check_bool "sigma near 1/2" true (sigma > 0.3 && sigma < 0.7)

(* ------------------------------------------------------------------ *)
(* Scenario 1 planner — Appendix D.3.1                                 *)
(* ------------------------------------------------------------------ *)

let q_of u = List.hd (R.Query.terms (R.Query.view_delta view u))

let s1_full_view_cost () =
  let { Workload.Scenarios.db; _ } = setup () in
  let plan = Storage.Planner.term cat1 db (R.Term.of_view view) in
  check_int "RV reads all three relations: 3I = 15" 15 plan.Storage.Plan.io

let s1_literal_in_r1 () =
  (* Q1 = t1 ⋈ r2 ⋈ r3: probe r2's clustered X (1), then r3's clustered Y
     once per matched r2 tuple (J = 4): 1 + J = 5 when J < I. *)
  let { Workload.Scenarios.db; _ } = setup () in
  let plan = Storage.Planner.term cat1 db (q_of (R.Update.insert "r1" t1)) in
  check_bool "IO1 close to 1 + J" true
    (plan.Storage.Plan.io >= 2 && plan.Storage.Plan.io <= 7)

let s1_literal_in_r2 () =
  (* Q2 = r1 ⋈ t2 ⋈ r3: both neighbours probed once from the literal:
     ceil(J/K) + ceil(J/K) = 2. *)
  let { Workload.Scenarios.db; _ } = setup () in
  let plan = Storage.Planner.term cat1 db (q_of (R.Update.insert "r2" t1)) in
  check_int "IO2 = 2" 2 plan.Storage.Plan.io

let s1_literal_in_r3 () =
  (* Q3 = r1 ⋈ r2 ⋈ t3: unclustered probe into r2 costs about J, then J
     probes into r1's clustered X: about 2J = 8. *)
  let { Workload.Scenarios.db; _ } = setup () in
  let plan = Storage.Planner.term cat1 db (q_of (R.Update.insert "r3" t1)) in
  check_bool "IO3 close to 2J" true
    (plan.Storage.Plan.io >= 4 && plan.Storage.Plan.io <= 12)

let s1_prefers_scan_when_j_large () =
  (* With join factor ~ C (every tuple matches), probing J times per step
     beats I only if J < I; here scanning must win. *)
  let j_huge = Workload.Spec.make ~c:100 ~j:100 ~seed:3 () in
  let { Workload.Scenarios.db; _ } = Workload.Scenarios.example6 j_huge in
  let plan = Storage.Planner.term cat1 db (q_of (R.Update.insert "r1" t1)) in
  (* 1 probe into r2 (clustered: ceil(100/20) = 5) or scan (5); then r3 via
     ~100 matched tuples -> scan r3 (5). Either way bounded by 1 + 2I. *)
  check_bool "cost bounded by scans" true (plan.Storage.Plan.io <= 1 + 10)

let s1_all_literal_term_is_free () =
  let { Workload.Scenarios.db; _ } = setup () in
  let q =
    Ref_eval.subst_all (R.Query.of_view view)
      [
        R.Update.insert "r1" t1;
        R.Update.insert "r2" t1;
        R.Update.insert "r3" t1;
      ]
  in
  let plan = Storage.Planner.query cat1 db q in
  check_int "fully substituted term costs nothing" 0 plan.Storage.Plan.io

(* ------------------------------------------------------------------ *)
(* Scenario 2 planner — Appendix D.3.2                                 *)
(* ------------------------------------------------------------------ *)

let s2_full_view_cost () =
  let { Workload.Scenarios.db; _ } = setup () in
  let plan = Storage.Planner.term cat2 db (R.Term.of_view view) in
  check_int "RV nested loop: I^3 = 125" 125 plan.Storage.Plan.io

let s2_two_base_term () =
  (* t1 ⋈ r2 ⋈ r3: outer r2 in 2-block chunks (I' = 3), inner r3 scanned
     each time (I = 5): I * I' = 15. *)
  let { Workload.Scenarios.db; _ } = setup () in
  let plan = Storage.Planner.term cat2 db (q_of (R.Update.insert "r1" t1)) in
  check_int "I * I' = 15" 15 plan.Storage.Plan.io

let s2_single_base_term () =
  (* t1 ⋈ t2 ⋈ r3: a single scan of r3. *)
  let { Workload.Scenarios.db; _ } = setup () in
  let q =
    Ref_eval.subst_all (R.Query.of_view view)
      [ R.Update.insert "r1" t1; R.Update.insert "r2" t1 ]
  in
  let plan = Storage.Planner.query cat2 db q in
  check_int "single relation scan: I = 5" 5 plan.Storage.Plan.io

let planner_total_on_degenerate_inputs () =
  (* The planner must produce a plan for every input — the S2 splitter
     used to carry an impossible-empty assertion arm. Degenerate cases:
     a catalog with no indexes, an empty database, and terms with no base
     relations at all. *)
  let empty_cat = Storage.Catalog.make () in
  let empty_db = db_of [ (r1, []); (r2, []); (r3, []) ] in
  let all_literal =
    List.hd
      (R.Query.terms
         (Ref_eval.subst_all (R.Query.of_view view)
            [
              R.Update.insert "r1" t1;
              R.Update.insert "r2" t1;
              R.Update.insert "r3" t1;
            ]))
  in
  check_bool "term is all-literal" true (R.Term.is_all_literals all_literal);
  check_int "S1 all-literal term over empty catalog+db is free" 0
    (Storage.Planner.term empty_cat R.Db.empty all_literal).Storage.Plan.io;
  check_int "S2 all-literal term over an empty db is free" 0
    (Storage.Planner.term cat2 R.Db.empty all_literal).Storage.Plan.io;
  check_int "S1 full view over an empty db costs nothing" 0
    (Storage.Planner.term empty_cat empty_db (R.Term.of_view view))
      .Storage.Plan.io;
  check_int "S2 full view over an empty db costs nothing" 0
    (Storage.Planner.term cat2 empty_db (R.Term.of_view view)).Storage.Plan.io

let s2_outer_reads_ablation () =
  let cat2' =
    Storage.Catalog.make ~mode:Storage.Catalog.Limited_memory
      ~count_outer_reads:true ()
  in
  let { Workload.Scenarios.db; _ } = setup () in
  let base = Storage.Planner.term cat2 db (q_of (R.Update.insert "r1" t1)) in
  let more = Storage.Planner.term cat2' db (q_of (R.Update.insert "r1" t1)) in
  check_bool "charging outer reads costs more" true
    (more.Storage.Plan.io > base.Storage.Plan.io)

(* ------------------------------------------------------------------ *)
(* The lazy join factor                                                *)
(* ------------------------------------------------------------------ *)

(* Random 2- and 3-relation terms over r1(W,X), r2(X,Y), r3(Y,Z) — with
   zero, one or two literal slots, relations in any order (r1 ⋈ r3 is a
   cross product), contents on both sides of [Db.scan_below] — planned
   under a catalog with random indexes and one with none: the same plan
   as the eager reference, which measures J for every reached relation. *)
let chain = [| r1; r2; r3 |]

let lazy_planner_prop =
  let open QCheck.Gen in
  let contents = list_size (int_bound 50) (pair (int_bound 12) (int_bound 5)) in
  let index_choice = oneofl [ None; Some true; Some false ] in
  let gen =
    let* rows = flatten_l [ contents; contents; contents ] in
    let* rels = oneofl [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0; 1; 2 ] ] >>= shuffle_l in
    let* lits = list_size (int_bound 2) (pair (oneofl rels) (pair (int_bound 12) (int_bound 5))) in
    let* with_indexes = bool in
    let* choices = list_repeat 6 index_choice in
    let* k = int_range 1 25 in
    return (rows, rels, lits, with_indexes, choices, k)
  in
  let print (rows, rels, lits, with_indexes, choices, k) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "rows %s; rels [%s]; literals %s; indexes %s; K=%d"
      (String.concat " | "
         (List.map
            (fun r -> String.concat "," (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) r))
            rows))
      (ints rels)
      (String.concat ","
         (List.map (fun (i, (a, b)) -> Printf.sprintf "r%d(%d,%d)" (i + 1) a b) lits))
      (if with_indexes then
         String.concat ","
           (List.map
              (function None -> "-" | Some true -> "c" | Some false -> "u")
              choices)
       else "none")
      k
  in
  QCheck.Test.make ~name:"lazy join factor: plans = the eager reference" ~count:300
    (QCheck.make ~print gen)
    (fun (rows, rels, lits, with_indexes, choices, k) ->
      let db =
        db_of (List.mapi (fun i r -> (chain.(i), List.map (fun (a, b) -> [ a; b ]) r)) rows)
      in
      let schemas = List.map (fun i -> chain.(i)) rels in
      let first = List.hd schemas in
      let view =
        R.View.natural_join ~name:"V"
          ~proj:[ R.Attr.qualified first.R.Schema.name (List.hd (R.Schema.attr_names first)) ]
          schemas
      in
      let indexes =
        if not with_indexes then []
        else
          List.concat
            (List.mapi
               (fun i choice ->
                 let s = chain.(i / 2) in
                 let attr = List.nth (R.Schema.attr_names s) (i mod 2) in
                 match choice with
                 | None -> []
                 | Some true -> [ Storage.Index.clustered s.R.Schema.name attr ]
                 | Some false -> [ Storage.Index.unclustered s.R.Schema.name attr ])
               choices)
      in
      let cat =
        Storage.Catalog.make ~block:(Storage.Block.make ~tuples_per_block:k) ~indexes ()
      in
      let updates =
        List.map (fun (i, (a, b)) -> ins chain.(i).R.Schema.name [ a; b ]) lits
      in
      List.for_all
        (fun t -> Storage.Planner.term cat db t = Ref_planner.scenario1_term cat db t)
        (R.Term.of_view view
        :: R.Query.terms (Ref_eval.subst_all (R.Query.of_view view) updates)))

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let executor_counts_per_term () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let v = view_w () in
  let t = R.Term.of_view v in
  (* T + (-T): the summed answer cancels, but transfer cost counts both
     terms' materialized results, as Appendix D.2 does. *)
  let res = Storage.Executor.run cat1 db [ t; R.Term.negate t ] in
  check_bag "answer cancels" R.Bag.empty res.Storage.Executor.answer;
  check_int "but both terms were shipped" 2
    res.Storage.Executor.cost.Storage.Cost.answer_tuples

let executor_accumulates_io () =
  let { Workload.Scenarios.db; _ } = setup () in
  let q =
    R.Query.plus
      (R.Query.view_delta view (R.Update.insert "r2" t1))
      (R.Query.view_delta view (R.Update.insert "r2" t1))
  in
  let res = Storage.Executor.run cat1 db q in
  check_int "two independent terms charged independently" 4
    res.Storage.Executor.cost.Storage.Cost.io

let shared_scans_discount () =
  let { Workload.Scenarios.db; _ } = setup () in
  (* a query with two terms that both scan all three relations *)
  let t = R.Term.of_view view in
  let q = [ t; R.Term.negate t ] in
  let io share_scans =
    let cat =
      Storage.Catalog.make ~mode:Storage.Catalog.Indexed_memory
        ~indexes:Storage.Catalog.example6_indexes ~share_scans ()
    in
    (Storage.Executor.run cat db q).Storage.Executor.cost.Storage.Cost.io
  in
  check_int "independent terms pay twice" 30 (io false);
  check_int "shared scans pay once" 15 (io true);
  (* single-term queries are unaffected *)
  let io1 share_scans =
    let cat =
      Storage.Catalog.make ~mode:Storage.Catalog.Indexed_memory
        ~indexes:Storage.Catalog.example6_indexes ~share_scans ()
    in
    (Storage.Executor.run cat db [ t ]).Storage.Executor.cost.Storage.Cost.io
  in
  check_int "no discount for one term" (io1 false) (io1 true)

let cost_monoid () =
  let a = { Storage.Cost.io = 1; answer_tuples = 2; answer_bytes = 3 } in
  let b = { Storage.Cost.io = 10; answer_tuples = 20; answer_bytes = 30 } in
  check_bool "add" true
    (Storage.Cost.equal (Storage.Cost.add a b)
       { Storage.Cost.io = 11; answer_tuples = 22; answer_bytes = 33 });
  check_bool "sum with zero" true
    (Storage.Cost.equal (Storage.Cost.sum [ a ]) (Storage.Cost.add a Storage.Cost.zero))

let suite =
  [
    Alcotest.test_case "block arithmetic" `Quick block_math;
    Alcotest.test_case "index probe pricing" `Quick index_probe_costs;
    Alcotest.test_case "catalog prefers clustered" `Quick
      catalog_prefers_clustered;
    Alcotest.test_case "measured statistics" `Quick measured_stats;
    Alcotest.test_case "S1: full view costs 3I" `Quick s1_full_view_cost;
    Alcotest.test_case "S1: literal in r1 costs ~1+J" `Quick s1_literal_in_r1;
    Alcotest.test_case "S1: literal in r2 costs 2" `Quick s1_literal_in_r2;
    Alcotest.test_case "S1: literal in r3 costs ~2J" `Quick s1_literal_in_r3;
    Alcotest.test_case "S1: scan wins for huge J" `Quick
      s1_prefers_scan_when_j_large;
    Alcotest.test_case "S1: all-literal term is free" `Quick
      s1_all_literal_term_is_free;
    Alcotest.test_case "S2: full view costs I^3" `Quick s2_full_view_cost;
    Alcotest.test_case "S2: two-base term costs I*I'" `Quick s2_two_base_term;
    Alcotest.test_case "S2: one-base term costs I" `Quick s2_single_base_term;
    Alcotest.test_case "S2: outer-read ablation" `Quick
      s2_outer_reads_ablation;
    Alcotest.test_case "planner is total on degenerate inputs" `Quick
      planner_total_on_degenerate_inputs;
    Alcotest.test_case "executor charges per term" `Quick
      executor_counts_per_term;
    Alcotest.test_case "executor accumulates IO" `Quick executor_accumulates_io;
    Alcotest.test_case "shared-scan discount" `Quick shared_scans_discount;
    Alcotest.test_case "cost monoid" `Quick cost_monoid;
    Helpers.qcheck lazy_planner_prop;
  ]
