(* Maintenance timing (Section 2): immediate vs periodic vs deferred.
   Wrapped algorithms visit a subsequence of the source states, so strong
   consistency must be preserved, messages must drop, and the final view
   must agree with immediate maintenance. *)

open Helpers
module R = Relational

let setup () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:25 ~j:3 ~k_updates:12 ~insert_ratio:0.7 ~seed:21 ())
  in
  (db, view, updates)

let run_timed ~mode ~algorithm ?(schedule = Core.Scheduler.Best_case) () =
  let db, view, updates = setup () in
  let result =
    Core.Engine.run ~schedule
      ~creator:(Core.Timing.creator mode (Core.Registry.creator_exn algorithm))
      ~sites:[ source db ] ~views:[ R.Viewdef.simple view ] ~updates ()
  in
  (result, R.Eval.view (R.Db.apply_all db updates) view)

let periodic_correct_and_cheaper () =
  let immediate, truth = run_timed ~mode:Core.Timing.Immediate ~algorithm:"eca" () in
  let periodic, _ = run_timed ~mode:(Core.Timing.Periodic 4) ~algorithm:"eca" () in
  check_bag "periodic final view correct" truth
    (List.assoc "V" periodic.Core.Engine.final_mvs);
  check_bool "periodic strongly consistent" true
    (List.assoc "V" periodic.Core.Engine.reports)
      .Core.Consistency.strongly_consistent;
  check_bool "fewer messages than immediate" true
    (Core.Metrics.messages periodic.Core.Engine.metrics
     < Core.Metrics.messages immediate.Core.Engine.metrics)

let deferred_single_refresh () =
  let deferred, truth = run_timed ~mode:Core.Timing.Deferred ~algorithm:"eca" () in
  check_bag "deferred final view correct" truth
    (List.assoc "V" deferred.Core.Engine.final_mvs);
  check_bool "deferred strongly consistent" true
    (List.assoc "V" deferred.Core.Engine.reports)
      .Core.Consistency.strongly_consistent;
  (* one flush, one combined query, one answer *)
  check_int "single round trip" 2
    (Core.Metrics.messages deferred.Core.Engine.metrics)

let periodic_under_contention () =
  let periodic, truth =
    run_timed ~mode:(Core.Timing.Periodic 3) ~algorithm:"eca"
      ~schedule:Core.Scheduler.Worst_case ()
  in
  check_bag "worst-case periodic is still correct" truth
    (List.assoc "V" periodic.Core.Engine.final_mvs);
  check_bool "strongly consistent" true
    (List.assoc "V" periodic.Core.Engine.reports)
      .Core.Consistency.strongly_consistent

let periodic_wraps_other_algorithms () =
  List.iter
    (fun algorithm ->
      let r, truth = run_timed ~mode:(Core.Timing.Periodic 5) ~algorithm () in
      check_bag (algorithm ^ " periodic correct") truth
        (List.assoc "V" r.Core.Engine.final_mvs))
    [ "lca"; "sc"; "rv" ]

let invalid_period_rejected () =
  match Core.Timing.wrap (Core.Timing.Periodic 0)
          (Core.Registry.creator_exn "eca"
             (Core.Algorithm.Config.make
                ~view:(R.Viewdef.simple (view_w ())) ~init_mv:R.Bag.empty ()))
  with
  | exception Core.Timing.Timing_error _ -> ()
  | _ -> Alcotest.fail "expected Timing_error"

let suite =
  [
    Alcotest.test_case "periodic: correct and cheaper" `Quick
      periodic_correct_and_cheaper;
    Alcotest.test_case "deferred: one refresh at demand" `Quick
      deferred_single_refresh;
    Alcotest.test_case "periodic under contention" `Quick
      periodic_under_contention;
    Alcotest.test_case "periodic wraps other algorithms" `Quick
      periodic_wraps_other_algorithms;
    Alcotest.test_case "invalid period rejected" `Quick
      invalid_period_rejected;
  ]
