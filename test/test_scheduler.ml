(* Scheduler policies in isolation: the priority orders that realize the
   paper's best and worst cases, rotation, determinism of seeded
   randomness, and the explicit-script discipline. *)

open Helpers
module S = Core.Scheduler

(* The single-site graph: which of its three events are enabled. *)
type enabled = { can_update : bool; can_source : bool; can_warehouse : bool }

let all_enabled = { can_update = true; can_source = true; can_warehouse = true }

let none_enabled =
  { can_update = false; can_source = false; can_warehouse = false }

(* One pick over the single-site graph, named like the scripted
   [S.action]s. *)
let pick t e =
  Option.map
    (function
      | S.Apply -> "apply-update"
      | S.Site_source _ -> "source-receive"
      | S.Site_warehouse _ -> "warehouse-receive")
    (S.pick_ready t
       (ready_of ~update:e.can_update [| e.can_source |] [| e.can_warehouse |]))

let best_case_priorities () =
  let t = S.create S.Best_case in
  Alcotest.(check (option string))
    "source first" (Some "source-receive")
    (pick t all_enabled);
  Alcotest.(check (option string))
    "then warehouse" (Some "warehouse-receive")
    (pick t { all_enabled with can_source = false });
  Alcotest.(check (option string))
    "updates last" (Some "apply-update")
    (pick t { can_update = true; can_source = false; can_warehouse = false })

let worst_case_priorities () =
  let t = S.create S.Worst_case in
  Alcotest.(check (option string))
    "updates first" (Some "apply-update")
    (pick t all_enabled);
  Alcotest.(check (option string))
    "then warehouse deliveries" (Some "warehouse-receive")
    (pick t { all_enabled with can_update = false })

let nothing_enabled () =
  let t = S.create S.Best_case in
  check_bool "no action" true (Option.is_none (pick t none_enabled))

let round_robin_rotates () =
  let t = S.create S.Round_robin in
  let names =
    List.init 6 (fun _ -> Option.get (pick t all_enabled))
  in
  (* with all three enabled, rotation must cycle with period 3 *)
  Alcotest.(check (list string))
    "cycle"
    [ List.nth names 0; List.nth names 1; List.nth names 2 ]
    [ List.nth names 3; List.nth names 4; List.nth names 5 ];
  check_int "three distinct actions in a cycle" 3
    (List.length (List.sort_uniq String.compare names))

let round_robin_skips_disabled () =
  (* Regression: the cursor must rotate over the FIXED action order,
     skipping disabled actions — not index into the filtered enabled
     list (which silently restarted the rotation whenever the enabled
     set changed, starving warehouse-receive under some workloads). *)
  let t = S.create S.Round_robin in
  let pick = pick t in
  let check msg want got = Alcotest.(check (option string)) msg (Some want) got in
  check "starts at apply-update" "apply-update" (pick all_enabled);
  check "then source-receive" "source-receive" (pick all_enabled);
  check "disabled warehouse is skipped, wraps around" "apply-update"
    (pick { all_enabled with can_warehouse = false });
  check "rotation resumes after the skip" "source-receive" (pick all_enabled);
  check "warehouse gets its turn" "warehouse-receive" (pick all_enabled);
  check "full cycle" "apply-update" (pick all_enabled);
  check "sole enabled action wins regardless of cursor" "source-receive"
    (pick { can_update = false; can_source = true; can_warehouse = false });
  check "cursor moved past the forced pick" "warehouse-receive"
    (pick all_enabled);
  check "and wraps again" "apply-update" (pick all_enabled)

let random_is_deterministic_per_seed () =
  let sequence seed =
    let t = S.create (S.Random seed) in
    List.init 20 (fun _ -> Option.get (pick t all_enabled))
  in
  Alcotest.(check (list string)) "same seed, same picks" (sequence 42) (sequence 42);
  check_bool "different seeds diverge somewhere" true
    (sequence 1 <> sequence 2)

let explicit_consumes_script () =
  let t = S.create (S.Explicit [ S.Apply_update; S.Source_receive ]) in
  Alcotest.(check (option string))
    "first scripted" (Some "apply-update")
    (pick t all_enabled);
  Alcotest.(check (option string))
    "second scripted" (Some "source-receive")
    (pick t all_enabled);
  (* exhausted: falls back to best-case priorities *)
  Alcotest.(check (option string))
    "fallback after exhaustion" (Some "source-receive")
    (pick t all_enabled)

let explicit_rejects_disabled () =
  let t = S.create (S.Explicit [ S.Source_receive ]) in
  match pick t { all_enabled with can_source = false } with
  | exception S.Schedule_error _ -> ()
  | _ -> Alcotest.fail "expected Schedule_error"

(* --- the ready-set path ------------------------------------------------ *)

(* pick_ready over incrementally maintained state must agree with
   pick_ready over a state freshly built from materialized arrays —
   including the stateful policies' cursors and RNG draws — under
   arbitrary readiness churn. *)
let incremental_equals_rebuilt () =
  let n = 5 in
  let st = Random.State.make [| 2024 |] in
  List.iter
    (fun policy ->
      let a = S.create policy and b = S.create policy in
      let ready = S.Ready.create n in
      for step = 1 to 300 do
        let update = Random.State.bool st in
        let sources = Array.init n (fun _ -> Random.State.bool st) in
        let warehouses = Array.init n (fun _ -> Random.State.bool st) in
        (* maintain the persistent state edge by edge, as the engine does *)
        S.Ready.set_update ready update;
        Array.iteri (fun i r -> S.Ready.set_source ready i r) sources;
        Array.iteri (fun i r -> S.Ready.set_warehouse ready i r) warehouses;
        let ea = S.pick_ready a (ready_of ~update sources warehouses)
        and eb = S.pick_ready b ready in
        if ea <> eb then
          Alcotest.failf "step %d: incremental and rebuilt states diverge" step
      done)
    [ S.Best_case; S.Worst_case; S.Round_robin; S.Random 7; S.Random 99 ]

(* [Random]'s historical spelling as a reference: one draw bounded by the
   enabled count, taken with [List.length] over sorted ready lists, then
   a merge walk of the two lists in event order (source i before
   warehouse i, sites ascending). Nothing enabled draws nothing. *)
let reference_random rng ~update sources warehouses =
  let ready a =
    List.filter (fun i -> a.(i)) (List.init (Array.length a) (fun i -> i))
  in
  let ss = ready sources and ws = ready warehouses in
  let count =
    (if update then 1 else 0) + List.length ss + List.length ws
  in
  if count = 0 then None
  else begin
    let j = Random.State.int rng count in
    if update && j = 0 then Some S.Apply
    else begin
      let rec walk j ss ws =
        match (ss, ws) with
        | s :: ss', w :: _ when s <= w ->
          if j = 0 then S.Site_source s else walk (j - 1) ss' ws
        | _, w :: ws' ->
          if j = 0 then S.Site_warehouse w else walk (j - 1) ss ws'
        | s :: ss', [] ->
          if j = 0 then S.Site_source s else walk (j - 1) ss' ws
        | [], [] -> Alcotest.fail "reference walk ran past the enabled events"
      in
      Some (walk (if update then j - 1 else j) ss ws)
    end
  end

(* The incremental [Random] pick against the reference under churn: a
   few readiness flips per step (sometimes none, so unchanged sets are
   re-marked too), over one, seven and two hundred sites. *)
let random_matches_reference () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let st = Random.State.make [| n; seed |] in
          let t = S.create (S.Random seed) and ready = S.Ready.create n in
          let rng = Random.State.make [| seed |] in
          let update = ref false in
          let sources = Array.make n false and warehouses = Array.make n false in
          for step = 1 to 2_000 do
            for _ = 1 to Random.State.int st 4 do
              let i = Random.State.int st n in
              match Random.State.int st 5 with
              | 0 ->
                update := not !update;
                S.Ready.set_update ready !update
              | 1 | 2 ->
                sources.(i) <- Random.State.bool st;
                S.Ready.set_source ready i sources.(i)
              | _ ->
                warehouses.(i) <- Random.State.bool st;
                S.Ready.set_warehouse ready i warehouses.(i)
            done;
            let want =
              reference_random rng ~update:!update sources warehouses
            in
            if S.pick_ready t ready <> want then
              Alcotest.failf "n %d, Random %d, step %d: picks diverge" n seed
                step;
            (* the pick above draws over the O(1) enabled count, so a
               wrong count diverges from the reference's draw *)
            check_bool "idle iff nothing is enabled"
              ((not !update)
              && Array.for_all not sources
              && Array.for_all not warehouses)
              (S.Ready.idle ready)
          done)
        [ 7; 99 ])
    [ 1; 7; 200 ]

let bounded_inflight_gates_on_load () =
  let t = S.create (S.Bounded_inflight 2) in
  let r = S.Ready.create 3 in
  S.Ready.set_update r true;
  S.Ready.set_update_site r 1;
  (* under the bound: the update flows *)
  S.Ready.set_load r 1 1;
  Alcotest.(check bool) "under the bound" true (S.pick_ready t r = Some S.Apply);
  (* at the bound: drain instead — heaviest ready warehouse end first *)
  S.Ready.set_load r 1 2;
  S.Ready.set_warehouse r 0 true;
  S.Ready.set_warehouse r 2 true;
  S.Ready.set_load r 0 1;
  S.Ready.set_load r 2 5;
  Alcotest.(check bool) "drains the heaviest warehouse end" true
    (S.pick_ready t r = Some (S.Site_warehouse 2));
  S.Ready.set_warehouse r 0 false;
  S.Ready.set_warehouse r 2 false;
  S.Ready.set_source r 0 true;
  Alcotest.(check bool) "then source ends" true
    (S.pick_ready t r = Some (S.Site_source 0));
  S.Ready.set_source r 0 false;
  (* blocked with nothing deliverable: the engine must tick the clock *)
  Alcotest.(check bool) "blocked and empty = None" true
    (S.pick_ready t r = None);
  (* an unknown update site never blocks *)
  S.Ready.set_update_site r (-1);
  Alcotest.(check bool) "unknown site flows" true
    (S.pick_ready t r = Some S.Apply)

let weighted_fair_serves_cold_edges () =
  let t = S.create (S.Weighted_fair 2) in
  let r = S.Ready.create 2 in
  (* site 0 is a hot edge with a standing backlog; site 1 has one lonely
     query to answer. The rotation must reach it within the quantum. *)
  S.Ready.set_warehouse r 0 true;
  S.Ready.set_load r 0 10;
  S.Ready.set_source r 1 true;
  let picks = List.init 6 (fun _ -> Option.get (S.pick_ready t r)) in
  Alcotest.(check bool) "hot, hot, cold rotation" true
    (picks
    = [
        S.Site_warehouse 0; S.Site_warehouse 0; S.Site_source 1;
        S.Site_warehouse 0; S.Site_warehouse 0; S.Site_source 1;
      ])

let suite =
  [
    Alcotest.test_case "best-case priorities" `Quick best_case_priorities;
    Alcotest.test_case "pick_ready incremental = rebuilt under churn" `Quick
      incremental_equals_rebuilt;
    Alcotest.test_case "random picks = merge-walk reference under churn"
      `Quick random_matches_reference;
    Alcotest.test_case "bounded-inflight gates on edge load" `Quick
      bounded_inflight_gates_on_load;
    Alcotest.test_case "weighted-fair serves cold edges" `Quick
      weighted_fair_serves_cold_edges;
    Alcotest.test_case "worst-case priorities" `Quick worst_case_priorities;
    Alcotest.test_case "nothing enabled" `Quick nothing_enabled;
    Alcotest.test_case "round robin rotates" `Quick round_robin_rotates;
    Alcotest.test_case "round robin skips disabled actions" `Quick
      round_robin_skips_disabled;
    Alcotest.test_case "random determinism" `Quick
      random_is_deterministic_per_seed;
    Alcotest.test_case "explicit script consumption" `Quick
      explicit_consumes_script;
    Alcotest.test_case "explicit rejects disabled actions" `Quick
      explicit_rejects_disabled;
  ]
