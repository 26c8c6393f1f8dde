(* End-to-end property tests: randomized update streams and schedules,
   checked against the Section-3.1 hierarchy. These are the executable
   counterparts of Theorem B.1 (ECA strongly consistent), Appendix C
   (ECAK strongly consistent), and the completeness claims for LCA/SC. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A random chain-schema instance plus a random applicable update stream
   (inserts and deletes that are valid when executed in order). *)
let chain_setup_gen =
  QCheck.Gen.(
    let tuple_gen = map R.Tuple.ints (list_size (return 2) (int_bound 3)) in
    let* rows1 = list_size (int_bound 4) tuple_gen in
    let* rows2 = list_size (int_bound 4) tuple_gen in
    let* rows3 = list_size (int_bound 4) tuple_gen in
    let db0 =
      R.Db.of_list
        [
          (r1, R.Bag.of_list rows1);
          (r2, R.Bag.of_list rows2);
          (r3, R.Bag.of_list rows3);
        ]
    in
    let* n = int_range 1 6 in
    let* choices =
      list_size (return n) (pair (oneofl [ "r1"; "r2"; "r3" ]) (pair tuple_gen bool))
    in
    let _, updates =
      List.fold_left
        (fun (db, acc) (rel, (tup, want_insert)) ->
          let u =
            if want_insert || R.Bag.count (R.Db.contents db rel) tup <= 0 then
              R.Update.insert rel tup
            else R.Update.delete rel tup
          in
          (R.Db.apply db u, u :: acc))
        (db0, []) choices
    in
    let* seed = int_bound 10_000 in
    return (db0, List.rev updates, seed))

let print_setup (db, updates, seed) =
  Format.asprintf "seed=%d@.%a@.updates: %s" seed R.Db.pp db
    (String.concat "; " (List.map R.Update.to_string updates))

let arb_chain = QCheck.make ~print:print_setup chain_setup_gen

let schedules_of_seed seed =
  [
    Core.Scheduler.Best_case;
    Core.Scheduler.Worst_case;
    Core.Scheduler.Round_robin;
    Core.Scheduler.Random seed;
  ]

let run_chain ~algorithm ~schedule (db, updates, _) =
  run ~algorithm ~schedule ~views:[ view_w3 () ] ~db ~updates ()

let holds_for_all_schedules ~algorithm check (db, updates, seed) =
  List.for_all
    (fun schedule ->
      check (run_chain ~algorithm ~schedule (db, updates, seed)))
    (schedules_of_seed seed)

let strong r = (report r "V").Core.Consistency.strongly_consistent
let complete r = (report r "V").Core.Consistency.complete
let convergent r = (report r "V").Core.Consistency.convergent

let correct_final r (db, updates, _) =
  let expected = R.Eval.view (R.Db.apply_all db updates) (view_w3 ()) in
  R.Bag.equal expected (final_mv r "V")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let count = 120

let eca_strongly_consistent =
  QCheck.Test.make ~name:"ECA strongly consistent on random runs" ~count
    arb_chain (fun setup ->
      holds_for_all_schedules ~algorithm:"eca"
        (fun r -> strong r && correct_final r setup)
        setup)

let lca_complete =
  QCheck.Test.make ~name:"LCA complete on random runs" ~count arb_chain
    (fun setup ->
      holds_for_all_schedules ~algorithm:"lca"
        (fun r -> complete r && correct_final r setup)
        setup)

let sc_complete =
  QCheck.Test.make ~name:"SC complete on random runs" ~count arb_chain
    (fun setup ->
      holds_for_all_schedules ~algorithm:"sc"
        (fun r -> complete r && correct_final r setup)
        setup)

let rv_strongly_consistent =
  QCheck.Test.make ~name:"RV strongly consistent on random runs" ~count
    arb_chain (fun setup ->
      holds_for_all_schedules ~algorithm:"rv"
        (fun r -> strong r && correct_final r setup)
        setup)

let ecal_strongly_consistent =
  QCheck.Test.make ~name:"ECAL strongly consistent on random runs" ~count
    arb_chain (fun setup ->
      holds_for_all_schedules ~algorithm:"eca-local"
        (fun r -> strong r && correct_final r setup)
        setup)

let basic_converges_when_drained =
  QCheck.Test.make
    ~name:"Basic is correct when every update drains before the next" ~count
    arb_chain (fun setup ->
      let r = run_chain ~algorithm:"basic" ~schedule:Core.Scheduler.Best_case setup in
      convergent r && correct_final r setup)

(* ECAK over the keyed two-relation scenario: random keyed streams. *)
let keyed_setup_gen =
  QCheck.Gen.(
    let* c = int_range 0 5 in
    let* k = int_range 1 6 in
    let* ins_ratio = oneofl [ 0.5; 1.0 ] in
    let* seed = int_bound 10_000 in
    let spec =
      Workload.Spec.make ~c ~j:2 ~k_updates:k ~insert_ratio:ins_ratio ~seed ()
    in
    return (Workload.Scenarios.keyed spec, seed))

let arb_keyed =
  QCheck.make
    ~print:(fun ({ Workload.Scenarios.updates; _ }, seed) ->
      Printf.sprintf "seed=%d updates=%s" seed
        (String.concat "; " (List.map R.Update.to_string updates)))
    keyed_setup_gen

let ecak_strongly_consistent =
  QCheck.Test.make ~name:"ECAK strongly consistent on keyed runs" ~count
    arb_keyed (fun ({ Workload.Scenarios.db; view; updates }, seed) ->
      List.for_all
        (fun schedule ->
          let r =
            run ~algorithm:"eca-key" ~schedule ~views:[ view ] ~db ~updates ()
          in
          let expected = R.Eval.view (R.Db.apply_all db updates) view in
          (report r "VK").Core.Consistency.strongly_consistent
          && R.Bag.equal expected (final_mv r "VK"))
        (schedules_of_seed seed))

let eca_and_ecak_agree =
  QCheck.Test.make ~name:"ECA and ECAK agree on keyed runs" ~count arb_keyed
    (fun ({ Workload.Scenarios.db; view; updates }, seed) ->
      List.for_all
        (fun schedule ->
          let final algorithm =
            let r = run ~algorithm ~schedule ~views:[ view ] ~db ~updates () in
            final_mv r "VK"
          in
          R.Bag.equal (final "eca") (final "eca-key"))
        (schedules_of_seed seed))

let suite =
  List.map Helpers.qcheck
    [
      eca_strongly_consistent;
      lca_complete;
      sc_complete;
      rv_strongly_consistent;
      ecal_strongly_consistent;
      basic_converges_when_drained;
      ecak_strongly_consistent;
      eca_and_ecak_agree;
    ]
