(* The staleness metric: view lag behind the source, the other axis of the
   timing/batching trade-offs. *)

open Helpers
module R = Relational

let setup k =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:20 ~j:3 ~k_updates:k ~insert_ratio:0.8 ~seed:31 ())
  in
  (db, view, updates)

let run_lag ?(schedule = Core.Scheduler.Best_case) ?timing ~algorithm k =
  let db, view, updates = setup k in
  let creator = Core.Registry.creator_exn algorithm in
  let creator =
    match timing with
    | Some mode -> Core.Timing.creator mode creator
    | None -> creator
  in
  let result =
    Core.Engine.run ~schedule ~creator ~sites:[ source db ]
      ~views:[ R.Viewdef.simple view ] ~updates ()
  in
  Core.Staleness.of_trace result.Core.Engine.trace "V"

let immediate_best_case_is_fresh () =
  let lag = run_lag ~algorithm:"eca" 10 in
  (* every update drains before the next: the view is behind by at most
     the one in-flight update, and converges fresh *)
  check_int "never more than one update behind" 1 lag.Core.Staleness.max_lag;
  check_int "final lag 0" 0 lag.Core.Staleness.final_lag;
  check_int "no unmatched states" 0 lag.Core.Staleness.unmatched

let worst_case_is_stale () =
  let immediate = run_lag ~algorithm:"eca" 10 in
  let worst = run_lag ~schedule:Core.Scheduler.Worst_case ~algorithm:"eca" 10 in
  (* one installation at the very end: lag climbs towards k meanwhile
     (value-equal intermediate states can shave an event or two off) *)
  check_bool "max lag approaches k" true (worst.Core.Staleness.max_lag >= 8);
  check_bool "far more stale than the drained run" true
    (worst.Core.Staleness.mean_lag > immediate.Core.Staleness.mean_lag);
  check_int "still converges fresh" 0 worst.Core.Staleness.final_lag

let sc_is_freshest () =
  let sc = run_lag ~schedule:Core.Scheduler.Round_robin ~algorithm:"sc" 12 in
  let eca = run_lag ~schedule:Core.Scheduler.Round_robin ~algorithm:"eca" 12 in
  check_bool "SC at most one event behind" true
    (sc.Core.Staleness.max_lag <= 1);
  check_bool "SC no less fresh than ECA" true
    (sc.Core.Staleness.mean_lag <= eca.Core.Staleness.mean_lag)

let periodic_increases_lag () =
  let immediate = run_lag ~algorithm:"eca" 12 in
  let periodic =
    run_lag ~algorithm:"eca" ~timing:(Core.Timing.Periodic 4) 12
  in
  check_bool "periodic is more stale on average" true
    (periodic.Core.Staleness.mean_lag > immediate.Core.Staleness.mean_lag);
  check_bool "periodic max lag at least the period" true
    (periodic.Core.Staleness.max_lag >= 4);
  let deferred = run_lag ~algorithm:"eca" ~timing:Core.Timing.Deferred 12 in
  check_bool "deferred is the most stale" true
    (deferred.Core.Staleness.mean_lag >= periodic.Core.Staleness.mean_lag);
  check_int "deferred still converges fresh" 0
    deferred.Core.Staleness.final_lag

let lca_fresh_under_drain () =
  let lag = run_lag ~algorithm:"lca" 10 in
  check_int "at most one update behind" 1 lag.Core.Staleness.max_lag;
  check_int "no unmatched" 0 lag.Core.Staleness.unmatched

let empty_run () =
  let db, view, _ = setup 0 in
  let result =
    Core.Engine.run ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source db ] ~views:[ R.Viewdef.simple view ] ~updates:[] ()
  in
  let lag = Core.Staleness.of_trace result.Core.Engine.trace "V" in
  check_int "no samples" 0 lag.Core.Staleness.samples;
  check_int "fresh" 0 lag.Core.Staleness.final_lag

let suite =
  [
    Alcotest.test_case "immediate best case is fresh" `Quick
      immediate_best_case_is_fresh;
    Alcotest.test_case "worst case converges fresh" `Quick worst_case_is_stale;
    Alcotest.test_case "SC is the freshest" `Quick sc_is_freshest;
    Alcotest.test_case "periodic refresh increases lag" `Quick
      periodic_increases_lag;
    Alcotest.test_case "LCA fresh under drain" `Quick lca_fresh_under_drain;
    Alcotest.test_case "empty run" `Quick empty_run;
  ]
