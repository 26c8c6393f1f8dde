(* The site-graph engine's new capabilities: multi-site scheduling,
   per-edge faults + reliable delivery over a federation, and the
   cross-source anomaly witnesses the unified trace makes observable.

   Byte-equivalence of the engine with the historical drivers is pinned
   separately by test_golden.ml; this file covers what the old drivers
   could not do at all. *)

open Helpers
module R = Relational
module E = Core.Engine
module S = Core.Scheduler

(* ------------------------------------------------------------------ *)
(* Multi-site round-robin rotation (regression, cf. the PR-2 pick fix)  *)
(* ------------------------------------------------------------------ *)

let event_name = function
  | S.Apply -> "A"
  | S.Site_source i -> Printf.sprintf "S%d" i
  | S.Site_warehouse i -> Printf.sprintf "W%d" i

let picks sched ms =
  List.map
    (fun m ->
      match S.pick_ready sched m with
      | Some ev -> event_name ev
      | None -> "-")
    ms

let multi ~update sources warehouses =
  ready_of ~update (Array.of_list sources) (Array.of_list warehouses)

let round_robin_rotates_over_sites () =
  (* The fixed event order over two sites is A, S0, W0, S1, W1. With
     everything enabled the cursor must walk it cyclically. *)
  let sched = S.create S.Round_robin in
  let all = multi ~update:true [ true; true ] [ true; true ] in
  Alcotest.(check (list string))
    "full rotation, twice around"
    [ "A"; "S0"; "W0"; "S1"; "W1"; "A"; "S0"; "W0"; "S1"; "W1" ]
    (picks sched (List.init 10 (fun _ -> all)))

let round_robin_skips_disabled_without_stalling () =
  (* The cursor indexes the fixed order, not the filtered enabled list —
     otherwise disabled events would freeze the rotation (the multi-site
     analog of the single-site round-robin regression). *)
  let sched = S.create S.Round_robin in
  let no_s0 = multi ~update:true [ false; true ] [ true; true ] in
  Alcotest.(check (list string))
    "S0 disabled: rotation advances over it"
    [ "A"; "W0"; "S1"; "W1"; "A"; "W0" ]
    (picks sched (List.init 6 (fun _ -> no_s0)));
  let none = multi ~update:false [ false; false ] [ false; false ] in
  Alcotest.(check (list string)) "nothing enabled" [ "-" ] (picks sched [ none ])

let extremes_generalize_the_federation_policies () =
  (* Best_case drains: first ready receive, site order, source end first.
     Worst_case pushes updates, then warehouse ends, then source ends. *)
  let m = multi ~update:true [ false; true ] [ true; true ] in
  List.iter
    (fun (label, policy, expect) ->
      let sched = S.create policy in
      Alcotest.(check string) label expect (List.hd (picks sched [ m ])))
    [
      ("best-case picks the first ready receive", S.Best_case, "W0");
      ("worst-case picks the update", S.Worst_case, "A");
    ]

(* Two autonomous sources for the federated tests below. *)
let emp = R.Schema.of_names "emp" [ "EID"; "DID" ]
let dept = R.Schema.of_names "dept" [ "DID"; "BUDGET" ]
let ord = R.Schema.of_names "ord" [ "OID"; "CID" ]
let cust = R.Schema.of_names "cust" [ "CID"; "SEGMENT" ]

let hr_db () =
  R.Db.of_list
    [
      (emp, bag [ [ 1; 10 ]; [ 2; 20 ] ]);
      (dept, bag [ [ 10; 500 ]; [ 20; 900 ] ]);
    ]

let sales_db () =
  R.Db.of_list [ (ord, bag [ [ 100; 7 ] ]); (cust, bag [ [ 7; 1 ]; [ 8; 2 ] ]) ]

let v_hr =
  R.View.natural_join ~name:"emp_budget"
    ~proj:[ R.Attr.unqualified "EID"; R.Attr.unqualified "BUDGET" ]
    [ emp; dept ]

let v_sales =
  R.View.natural_join ~name:"ord_segment"
    ~proj:[ R.Attr.unqualified "OID"; R.Attr.unqualified "SEGMENT" ]
    [ ord; cust ]

let two_sources () = [ ("hr", None, hr_db ()); ("sales", None, sales_db ()) ]

let two_source_updates =
  [
    ins "emp" [ 3; 20 ];
    ins "ord" [ 101; 8 ];
    del "emp" [ 1; 10 ];
    ins "cust" [ 9; 3 ];
  ]

(* ------------------------------------------------------------------ *)
(* The federated trace: per-source state sequences                      *)
(* ------------------------------------------------------------------ *)

let federated_trace_is_per_source () =
  let result =
    E.run ~schedule:S.Best_case ~creator:(Core.Registry.creator_exn "eca")
      ~sites:(sites_of (two_sources ())) ~views:[ vd v_hr; vd v_sales ]
      ~updates:two_source_updates ()
  in
  (* Two hr updates and one sales-side cust update affect the two views:
     each view's source-state sequence advances only on its own source's
     updates (initial state + one per owning-site update). *)
  check_int "hr view: initial + its 2 updates" 3
    (List.length (Core.Trace.source_states result.E.trace "emp_budget"));
  check_int "sales view: initial + its 2 updates" 3
    (List.length (Core.Trace.source_states result.E.trace "ord_segment"));
  check_bool "every view strongly consistent under drain-first" true
    (List.for_all
       (fun (_, r) -> r.Core.Consistency.strongly_consistent)
       result.E.reports);
  check_int "no negative installs" 0 (List.length result.E.negative_installs)

(* ------------------------------------------------------------------ *)
(* Cross-source fetch-join: a state corresponding to no global snapshot *)
(* ------------------------------------------------------------------ *)

let v_cross =
  R.View.make ~name:"cross"
    ~proj:[ R.Attr.qualified "emp" "EID"; R.Attr.qualified "cust" "SEGMENT" ]
    ~cond:(Helpers.eq_attrs "emp.EID" "cust.CID")
    [ emp; cust ]

let cross_source_installs_no_global_snapshot () =
  (* Racing inserts on two sources: emp(8,10) at hr and cust(8,1) at
     sales both join into the cross view. Under updates-first, each
     insert's fetch query is answered against a state that already
     contains the other insert, so the effect is counted twice: the
     warehouse installs {(8,1)↦2, …} — a bag that is not the view's value
     at any global snapshot. The federated trace now records both state
     sequences, making the anomaly a checkable witness instead of a
     remark in the docs. *)
  let result =
    E.run ~schedule:S.Worst_case ~allow_cross_source:true
      ~creator:(Core.Registry.creator_exn "fetch-join")
      ~sites:(sites_of (two_sources ())) ~views:[ vd v_cross ]
      ~updates:[ ins "emp" [ 8; 10 ]; ins "cust" [ 8; 1 ] ] ()
  in
  let source_states = Core.Trace.source_states result.E.trace "cross" in
  let warehouse_states = Core.Trace.warehouse_states result.E.trace "cross" in
  check_bool "witness: an installed state equals no global snapshot" true
    (List.exists
       (fun w -> not (List.exists (R.Bag.equal w) source_states))
       warehouse_states);
  let report = List.assoc "cross" result.E.reports in
  check_bool "verdict: not even convergent" false
    report.Core.Consistency.convergent;
  (* the double-count is an over-insertion, not an over-deletion *)
  check_int "no negative installs" 0 (List.length result.E.negative_installs);
  check_bag "final view double-counts the racing pair"
    (R.Bag.of_list
       [ R.Tuple.ints [ 8; 1 ]; R.Tuple.ints [ 8; 1 ]; R.Tuple.ints [ 8; 2 ] ])
    (List.assoc "cross" result.E.final_mvs)

(* ------------------------------------------------------------------ *)
(* 3-source federation × fault profiles × reliable delivery vs oracle  *)
(* ------------------------------------------------------------------ *)

(* Three independent copies of the generated scenarios, one per source,
   with relations renamed apart (sources must own disjoint schemas). *)

let prefix_schema p (s : R.Schema.t) =
  R.Schema.make ~key:s.R.Schema.key (p ^ s.R.Schema.name) s.R.Schema.columns

let prefix_db p db =
  List.fold_left
    (fun acc rel ->
      R.Db.add_relation ~contents:(R.Db.contents db rel) acc
        (prefix_schema p (R.Db.schema db rel)))
    R.Db.empty (R.Db.relation_names db)

let prefix_updates p us =
  List.map
    (fun (u : R.Update.t) -> { u with R.Update.rel = p ^ u.R.Update.rel })
    us

(* Example 6's chain view over the renamed relations. *)
let chain_view p =
  R.View.natural_join
    ~name:(p ^ "V")
    ~extra_cond:
      (R.Predicate.Cmp
         ( R.Predicate.Gt,
           R.Predicate.Col (R.Attr.qualified (p ^ "r1") "W"),
           R.Predicate.Col (R.Attr.qualified (p ^ "r3") "Z") ))
    ~proj:[ R.Attr.qualified (p ^ "r1") "W"; R.Attr.qualified (p ^ "r3") "Z" ]
    (List.map (prefix_schema p) Workload.Generator.chain_schemas)

(* The keyed two-relation view (covers both keys, so ECAK applies). *)
let keyed_view p =
  R.View.natural_join
    ~name:(p ^ "VK")
    ~proj:[ R.Attr.qualified (p ^ "r1") "W"; R.Attr.qualified (p ^ "r2") "Y" ]
    (List.map (prefix_schema p) Workload.Generator.keyed_schemas)

(* Strict round-robin interleaving of the per-site streams, so updates of
   different sources race at every point of the run. *)
let rec interleave lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | ls -> List.map List.hd ls @ interleave (List.map List.tl ls)

let fed_scenario ~kind ~seed =
  let mk i p =
    let spec =
      Workload.Spec.make ~c:10 ~j:3 ~k_updates:6 ~insert_ratio:0.5
        ~seed:(seed + (31 * i))
        ()
    in
    match kind with
    | `Chain ->
      let { Workload.Scenarios.db; view = _; updates } =
        Workload.Scenarios.example6 spec
      in
      (prefix_db p db, chain_view p, prefix_updates p updates)
    | `Keyed ->
      let { Workload.Scenarios.db; view = _; updates } =
        Workload.Scenarios.keyed spec
      in
      (prefix_db p db, keyed_view p, prefix_updates p updates)
  in
  let parts = List.mapi mk [ "a_"; "b_"; "c_" ] in
  ( List.mapi (fun i (db, _, _) -> (Printf.sprintf "s%d" i, None, db)) parts,
    List.map (fun (_, v, _) -> v) parts,
    interleave (List.map (fun (_, _, us) -> us) parts),
    List.map
      (fun (db, (v : R.View.t), us) ->
        (v.R.View.name, R.Eval.view (R.Db.apply_all db us) v))
      parts )

let run_fed ?fault ?(reliable = false) ~algorithm ~kind ~seed () =
  let sources, views, updates, truths = fed_scenario ~kind ~seed in
  let result =
    E.run ~schedule:(S.Random seed)
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:(sites_of ?fault ~fault_seed:(seed * 7) ~reliable sources)
      ~views:(List.map R.Viewdef.simple views) ~updates ()
  in
  let ok =
    List.for_all
      (fun (name, truth) ->
        R.Bag.equal truth (List.assoc name result.E.final_mvs))
      truths
  in
  (ok, result)

let seeds = List.init 40 (fun i -> i)

let family_correct_over_federated_reliable_faults () =
  (* ECA / ECAK / ECAL over a 3-source federation, every fault profile,
     reliable delivery, 40 seeds — the federated mirror of
     test_reliable's single-source sweep. Cells are independent; fan the
     whole matrix over the domain pool, then check sequentially. *)
  let cells =
    List.concat_map
      (fun (algorithm, kind) ->
        List.concat_map
          (fun (profile, fault) ->
            List.map (fun seed -> (algorithm, kind, profile, fault, seed)) seeds)
          Workload.Scenarios.fault_profiles)
      [ ("eca", `Chain); ("eca-local", `Chain); ("eca-key", `Keyed) ]
  in
  let swept =
    par_map
      (fun (algorithm, kind, profile, fault, seed) ->
        let ok, (result : E.result) =
          run_fed ~fault ~reliable:true ~algorithm ~kind ~seed ()
        in
        let m = result.E.metrics in
        ( (algorithm, profile, seed),
          ok,
          m.Core.Metrics.delivery,
          List.length m.Core.Metrics.site_delivery ))
      cells
  in
  let retransmits = ref 0 and dups = ref 0 and dropped = ref 0 in
  List.iter
    (fun ((algorithm, profile, seed), ok, d, edges) ->
      retransmits := !retransmits + d.Core.Metrics.retransmits;
      dups := !dups + d.Core.Metrics.dups_dropped;
      dropped := !dropped + d.Core.Metrics.msgs_dropped;
      check_int
        (Printf.sprintf "%s/%s seed %d: one delivery entry per edge"
           algorithm profile seed)
        3 edges;
      check_bool
        (Printf.sprintf
           "%s over 3-source %s + reliable matches oracle (seed %d)"
           algorithm profile seed)
        true ok)
    swept;
  (* The faults must actually have fired, or the passes prove nothing. *)
  check_bool "losses occurred" true (!dropped > 0);
  check_bool "retransmissions occurred" true (!retransmits > 0);
  check_bool "duplicates were dropped" true (!dups > 0)

let chaos_without_reliable_still_breaks_federated_eca () =
  let broken =
    List.exists not
      (par_map
         (fun seed ->
           fst
             (run_fed ~fault:Workload.Scenarios.chaos_profile ~algorithm:"eca"
                ~kind:`Chain ~seed ()))
         seeds)
  in
  check_bool "raw chaos edges break federated ECA somewhere" true broken

(* ------------------------------------------------------------------ *)
(* Input validation                                                     *)
(* ------------------------------------------------------------------ *)

(* Each invalid input is rejected at entry as Engine_error, not as a
   foreign exception from the scheduler, RV or the reliable sublayer. *)
let invalid_inputs_raise_engine_error () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let run ?schedule ?rv_period ?(updates = [ ins "r1" [ 4; 2 ] ]) algorithm ()
      =
    E.run ?schedule ?rv_period ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ source db ] ~views:[ vd (view_w ()) ] ~updates ()
  in
  let escapes (label, run) =
    match run () with
    | _ -> Some (label ^ ": accepted")
    | exception E.Engine_error _ -> None
    | exception e -> Some (label ^ ": raised " ^ Printexc.to_string e)
  in
  Alcotest.(check (list string))
    "every row is rejected as Engine_error" []
    (List.filter_map escapes
       [
         ("Bounded_inflight 0", run ~schedule:(S.Bounded_inflight 0) "eca");
         ("Weighted_fair 0", run ~schedule:(S.Weighted_fair 0) "eca");
         ("rv_period 0", run ~rv_period:0 "rv");
         ("delete of an absent tuple", run ~updates:[ del "r1" [ 9; 9 ] ] "eca");
         ("wrong-arity insert", run ~updates:[ ins "r1" [ 4; 2; 7 ] ] "eca");
         ( "insert into an unknown relation",
           run ~updates:[ ins "nope" [ 4; 2 ] ] "eca" );
       ])

(* Two views under one name: reports, final states and the judge key on
   the name, so the run used to host both and call a correct ECA run
   inconsistent. The script parser and the engine both refuse it. *)
let duplicate_view_names_rejected () =
  let script =
    "TABLE r1 (W INT, X INT);\nTABLE r2 (X INT, Y INT);\n\
     VIEW v AS SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X;\n\
     VIEW v AS SELECT r2.Y FROM r1, r2 WHERE r1.X = r2.X;\n\
     INSERT INTO r1 VALUES (1, 2);\nUPDATES;\n\
     INSERT INTO r2 VALUES (2, 3);\nINSERT INTO r1 VALUES (4, 2);\n"
  in
  (match R.Parser.parse_script script with
   | exception R.Parser.Parse_error m ->
     Alcotest.(check string) "parse error" "view v is defined twice" m
   | _ -> Alcotest.fail "the script parser accepted two views named v");
  let tables = [ r1; r2 ] in
  let view sql = R.Parser.parse_view ~tables sql in
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  match
    E.run ~schedule:S.Worst_case ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source db ]
      ~views:
        [
          view "VIEW v AS SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X;";
          view "VIEW v AS SELECT r2.Y FROM r1, r2 WHERE r1.X = r2.X;";
        ]
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r1" [ 4; 2 ] ]
      ()
  with
  | exception E.Engine_error m ->
    Alcotest.(check string) "engine error" "view v is defined twice" m
  | _ -> Alcotest.fail "Engine.run hosted two views named v"

(* ------------------------------------------------------------------ *)
(* One loop step is one atomic event                                    *)
(* ------------------------------------------------------------------ *)

(* Every step of the event loop is one atomic event. A source event, a
   source receive and a warehouse receive each record one trace entry; a
   transport tick records none but counts in [delivery.ticks]; a
   quiescence probe records one entry when it produces work and ends the
   run otherwise. So steps = entries + ticks + 1, over every rung,
   schedule, transport and batching mode, and across schema changes. *)
let steps_are_atomic_events () =
  let w = Workload.Scenarios.scaled ~n:6 () in
  let views = List.map vd w.Workload.Scenarios.views in
  let holds (r : E.result) =
    let m = r.E.metrics in
    m.Core.Metrics.steps
    = List.length (Core.Trace.entries r.E.trace)
      + m.Core.Metrics.delivery.Core.Metrics.ticks + 1
  in
  let cells =
    List.concat_map
      (fun algorithm ->
        List.concat_map
          (fun (sched, schedule) ->
            List.concat_map
              (fun (edge, fault, reliable) ->
                List.map
                  (fun (batching, batch_size, coalesce) ->
                    ( String.concat "/" [ algorithm; sched; edge; batching ],
                      (algorithm, schedule, fault, reliable, batch_size, coalesce)
                    ))
                  [ ("batch 1", 1, false); ("batch 3", 3, false);
                    ("coalesce", 1, true) ])
              (("none", None, false)
              :: List.concat_map
                   (fun (profile, fault) ->
                     [ ("raw " ^ profile, Some fault, false);
                       ("reliable " ^ profile, Some fault, true) ])
                   Workload.Scenarios.fault_profiles))
          [ ("best", S.Best_case); ("worst", S.Worst_case);
            ("round-robin", S.Round_robin); ("random:7", S.Random 7);
            ("random:31", S.Random 31) ])
      [ "basic"; "eca"; "eca-key"; "eca-local"; "lca"; "rv"; "sc" ]
  in
  let swept =
    par_map
      (fun (label, (algorithm, schedule, fault, reliable, batch_size, coalesce)) ->
        let r =
          E.run ~schedule ~batch_size ~coalesce
            ~creator:(Core.Registry.creator_exn algorithm)
            ~sites:
              (sites_of ?fault ~fault_seed:3 ~reliable
                 w.Workload.Scenarios.sources)
            ~views ~updates:w.Workload.Scenarios.updates ()
        in
        if holds r then None else Some label)
      cells
  in
  let evolving =
    List.filter_map
      (fun seed ->
        let { Workload.Scenarios.db; view; updates; ddls } =
          Workload.Scenarios.evolution
            (Workload.Spec.make ~c:8 ~j:2 ~k_updates:16 ~insert_ratio:0.6
               ~seed ())
        in
        let r =
          E.run ~schedule:(S.Random seed) ~evolution:ddls
            ~creator:(Core.Registry.creator_exn "eca")
            ~sites:[ source db ] ~views:[ vd view ] ~updates ()
        in
        if holds r then None else Some (Printf.sprintf "evolution seed %d" seed))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list string))
    "steps = trace entries + ticks + 1 on every run" []
    (List.filter_map Fun.id swept @ evolving)

(* ------------------------------------------------------------------ *)
(* The stepper: start, step, finish                                     *)
(* ------------------------------------------------------------------ *)

let step_name = function
  | E.Pick ev -> event_name ev
  | E.Tick -> "tick"
  | E.Probe -> "probe"

(* Every [Some] event of a stepped run, in order; the state is left
   drained. *)
let drain st =
  let rec go acc =
    match E.step st with Some ev -> go (ev :: acc) | None -> List.rev acc
  in
  go []

(* Example 2's interleaving: each scheduler pick is one step, the final
   work-free probe is the ninth, and the stepper stays done after it. *)
let example2_steps () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let st =
    E.start ~schedule:(explicit "AWAWSWSW")
      ~creator:(Core.Registry.creator_exn "eca") ~sites:[ source db ]
      ~views:[ vd (view_w ()) ]
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r1" [ 4; 2 ] ]
      ()
  in
  Alcotest.(check (list string))
    "A W0 A W0 S0 W0 S0 W0, then the probe"
    [ "A"; "W0"; "A"; "W0"; "S0"; "W0"; "S0"; "W0"; "probe" ]
    (List.map step_name (drain st));
  check_bool "None again after the end" true (E.step st = None);
  check_int "metrics.steps" 9 (E.finish st).E.metrics.Core.Metrics.steps

(* [E.run]'s arguments, run as [start], [step] by hand until [None], then
   [finish]; [seen] receives the number of [Some] steps and the
   result. *)
let stepped seen : E.result E.options =
 fun ?schedule ?rv_period ?batch_size ?local_literal_eval ?allow_cross_source
     ?observe ?share_deltas ?coalesce ?track_scale ?evolution ?windows
     ~creator ~sites ~views ~updates () ->
  let st =
    E.start ?schedule ?rv_period ?batch_size ?local_literal_eval
      ?allow_cross_source ?observe ?share_deltas ?coalesce ?track_scale
      ?evolution ?windows ~creator ~sites ~views ~updates ()
  in
  let n = List.length (drain st) in
  let r = E.finish st in
  seen := (n, r) :: !seen;
  r

(* Every golden configuration stepped by hand exports byte-identical
   JSON to [E.run]'s, and its [Some] steps are exactly [metrics.steps] =
   trace entries + ticks + 1 — the reliable-chaos run's ticks
   included. *)
let goldens_step_like_run () =
  List.iter
    (fun (name, config) ->
      let seen = ref [] in
      Alcotest.(check string)
        (name ^ ": stepped JSON = run JSON")
        (config E.run) (config (stepped seen));
      List.iter
        (fun (n, (r : E.result)) ->
          let m = r.E.metrics in
          check_int (name ^ ": Some steps = metrics.steps") m.Core.Metrics.steps
            n;
          check_int (name ^ ": Some steps = entries + ticks + 1")
            (List.length (Core.Trace.entries r.E.trace)
            + m.Core.Metrics.delivery.Core.Metrics.ticks + 1)
            n)
        !seen;
      check_int (name ^ ": one stepped run") 1 (List.length !seen))
    Test_golden.cases

(* [start] only validates and builds: the source rejects an update at
   the step that executes it. *)
let rejected_update_raises_from_step () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let st =
    E.start ~schedule:S.Worst_case ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source db ] ~views:[ vd (view_w ()) ]
      ~updates:[ ins "r1" [ 4; 2 ]; del "r1" [ 9; 9 ] ]
      ()
  in
  Alcotest.(check (option string))
    "the first update applies" (Some "A")
    (Option.map step_name (E.step st));
  match E.step st with
  | _ -> Alcotest.fail "the rejected delete did not raise"
  | exception E.Engine_error m ->
    check_bool "names the update" true
      (String.starts_with ~prefix:"site source rejected update" m)

(* Over several sources [start] routes every workload item, so an item
   on a relation no source owns raises from [start] wherever it sits in
   the stream, not from the step that would reach it. *)
let unowned_relation_raises_from_start () =
  let sites =
    [ E.site ~name:"a" (db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ]);
      E.site ~name:"b" (db_of [ (r3, [ [ 3; 4 ] ]) ]) ]
  in
  List.iter
    (fun position ->
      let updates =
        List.init 12 (fun k ->
            if k = position then ins "r9" [ 1; 2 ] else ins "r1" [ 10 + k; 2 ])
      in
      match
        E.start ~schedule:S.Worst_case ~creator:(Core.Registry.creator_exn "eca")
          ~sites ~views:[ vd (view_w ()) ] ~updates ()
      with
      | _ -> Alcotest.failf "item %d on an unowned relation passed start" (position + 1)
      | exception E.Engine_error m ->
        Alcotest.(check string)
          (Printf.sprintf "item %d" (position + 1))
          "no source owns relation r9" m)
    [ 0; 9 ]

let suite =
  [
    Alcotest.test_case "multi-site round-robin rotation" `Quick
      round_robin_rotates_over_sites;
    Alcotest.test_case "round-robin skips disabled events" `Quick
      round_robin_skips_disabled_without_stalling;
    Alcotest.test_case "extreme policies generalize federation's" `Quick
      extremes_generalize_the_federation_policies;
    Alcotest.test_case "invalid inputs raise Engine_error" `Quick
      invalid_inputs_raise_engine_error;
    Alcotest.test_case "duplicate view names are rejected" `Quick
      duplicate_view_names_rejected;
    Alcotest.test_case "one step is one atomic event" `Quick
      steps_are_atomic_events;
    Alcotest.test_case "Example 2 steps one event at a time" `Quick
      example2_steps;
    Alcotest.test_case "golden configs stepped by hand = run" `Quick
      goldens_step_like_run;
    Alcotest.test_case "a rejected update raises from its step" `Quick
      rejected_update_raises_from_step;
    Alcotest.test_case "an unowned relation raises from start" `Quick
      unowned_relation_raises_from_start;
    Alcotest.test_case "federated trace is per-source" `Quick
      federated_trace_is_per_source;
    Alcotest.test_case "cross-source install has no global snapshot" `Quick
      cross_source_installs_no_global_snapshot;
    Alcotest.test_case
      "ECA family over 3-source reliable faults = oracle (40 seeds)" `Quick
      family_correct_over_federated_reliable_faults;
    Alcotest.test_case "chaos without the sublayer breaks federated ECA"
      `Quick chaos_without_reliable_still_breaks_federated_eca;
  ]
