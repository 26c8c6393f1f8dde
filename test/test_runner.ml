(* Single-source engine runs, trace, warehouse and source-site
   internals: the simulation plumbing below the algorithms. *)

open Helpers
module R = Relational

let small_db () = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ]

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_state_sequences () =
  let db = small_db () in
  let result =
    run ~algorithm:"eca" ~schedule:Core.Scheduler.Best_case
      ~views:[ view_w () ] ~db
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r1" [ 4; 2 ] ]
      ()
  in
  let trace = result.Core.Engine.trace in
  let src = Core.Trace.source_states trace "V" in
  let wh = Core.Trace.warehouse_states trace "V" in
  check_int "three source states (ss0..ss2)" 3 (List.length src);
  check_bag "ss0 is the initial view" R.Bag.empty (List.hd src);
  check_bag "last source state" (bag [ [ 1 ]; [ 4 ] ])
    (List.nth src 2);
  check_int "three warehouse states under best case" 3 (List.length wh);
  check_bag "ws0 is the initial view" R.Bag.empty (List.hd wh)

let trace_unknown_view_is_empty () =
  let db = small_db () in
  let result =
    run ~algorithm:"eca" ~views:[ view_w () ] ~db
      ~updates:[ ins "r2" [ 2; 3 ] ] ()
  in
  Alcotest.(check (list bag_testable))
    "no states for an unknown view" []
    (Core.Trace.source_states result.Core.Engine.trace "nope")

let trace_entry_order () =
  let db = small_db () in
  let result =
    run ~algorithm:"eca" ~schedule:(explicit "AWSW") ~views:[ view_w () ]
      ~db ~updates:[ ins "r2" [ 2; 3 ] ] ()
  in
  let kinds =
    List.map
      (function
        | Core.Trace.Source_update _ -> "SU"
        | Core.Trace.Warehouse_note _ -> "WN"
        | Core.Trace.Source_answer _ -> "SA"
        | Core.Trace.Warehouse_answer _ -> "WA"
        | Core.Trace.Quiesce_probe _ -> "QP"
        | Core.Trace.Source_ddl _ -> "SD"
        | Core.Trace.Warehouse_ddl _ -> "WD")
      (Core.Trace.entries result.Core.Engine.trace)
  in
  Alcotest.(check (list string)) "event order" [ "SU"; "WN"; "SA"; "WA" ] kinds

(* ------------------------------------------------------------------ *)
(* Warehouse routing                                                   *)
(* ------------------------------------------------------------------ *)

let warehouse_routes_answers () =
  let db = small_db () in
  let va = view_w ~name:"A" () in
  let vb = view_wy ~name:"B" () in
  let wh =
    Core.Warehouse.create ~creator:Core.Eca.instance
      [
        Core.Algorithm.Config.of_view_db va db;
        Core.Algorithm.Config.of_view_db vb db;
      ]
  in
  let reaction = Core.Warehouse.handle_update wh (ins "r2" [ 2; 3 ]) in
  check_int "one query per hosted view" 2
    (List.length reaction.Core.Warehouse.queries);
  (* answering the second query must only touch view B *)
  let gid_b = fst (List.nth reaction.Core.Warehouse.queries 1) in
  let r2 = Core.Warehouse.handle_answer wh ~gid:gid_b (bag [ [ 1; 3 ] ]) in
  (match r2.Core.Warehouse.installs with
   | [ (name, _) ] -> Alcotest.(check string) "B installed" "B" name
   | _ -> Alcotest.fail "expected exactly one view to install");
  check_bag "A untouched" R.Bag.empty
    (List.assoc "A" (Core.Warehouse.mvs wh));
  check_bool "unknown answer ids are ignored" true
    (Core.Warehouse.handle_answer wh ~gid:999 R.Bag.empty
     = Core.Warehouse.no_reaction)

(* Shared gids must keep their subscribers owner-first in host order —
   the answer fan-out and the observability labels both depend on it, and
   the subscription path appends one entry at a time. *)
let shared_route_order_pins_owner_first () =
  let db = small_db () in
  let names = [ "A"; "B"; "C"; "D" ] in
  let wh =
    Core.Warehouse.create ~share:true ~creator:Core.Eca.instance
      (List.map
         (fun n -> Core.Algorithm.Config.of_view_db (view_w ~name:n ()) db)
         names)
  in
  let reaction = Core.Warehouse.handle_update wh (ins "r2" [ 2; 3 ]) in
  (match reaction.Core.Warehouse.queries with
  | [ (gid, _) ] ->
    (match Core.Warehouse.gid_view wh gid with
    | Some ("A", _) -> ()
    | _ -> Alcotest.fail "gid must be owned by the first host");
    let r = Core.Warehouse.handle_answer wh ~gid (bag [ [ 1; 3 ] ]) in
    Alcotest.(check (list string))
      "answers delivered owner-first" names
      (List.map fst r.Core.Warehouse.installs)
  | qs -> Alcotest.failf "expected one shared query, got %d" (List.length qs))

(* Dispatch is total: message kinds the warehouse never legitimately
   receives are absorbed as recorded anomalies — a misrouted message must
   not take down every hosted view (used to raise Invalid_argument). *)
let warehouse_absorbs_misrouted_messages () =
  let db = small_db () in
  let wh =
    Core.Warehouse.create ~creator:Core.Eca.instance
      [ Core.Algorithm.Config.of_view_db (view_w ()) db ]
  in
  let mv_before = List.assoc "V" (Core.Warehouse.mvs wh) in
  check_bool "a query produces no reaction" true
    (Core.Warehouse.misrouted wh
       (Messaging.Message.Query { id = 0; query = R.Query.empty })
    = Core.Warehouse.no_reaction);
  check_bool "a protocol frame produces no reaction" true
    (Core.Warehouse.misrouted wh
       (Messaging.Message.Ack { cum = 3; sacks = [] })
    = Core.Warehouse.no_reaction);
  check_int "both anomalies recorded" 2
    (List.length (Core.Warehouse.anomalies wh));
  check_bag "hosted state untouched" mv_before
    (List.assoc "V" (Core.Warehouse.mvs wh));
  (* legitimate traffic still flows after the anomaly *)
  let reaction = Core.Warehouse.handle_update wh (ins "r2" [ 2; 3 ]) in
  check_int "still reacts to updates" 1
    (List.length reaction.Core.Warehouse.queries)

(* The trace is the install history: SC installs once per
   view-changing update, so two such inserts leave ws0 plus two states,
   oldest first. *)
let trace_records_installs () =
  let result =
    run ~algorithm:"sc" ~views:[ view_w () ] ~db:(small_db ())
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r2" [ 2; 4 ] ]
      ()
  in
  Alcotest.(check (list bag_testable))
    "ws0 then both installs"
    [ R.Bag.empty; bag [ [ 1 ] ]; bag [ [ 1 ]; [ 1 ] ] ]
    (Core.Trace.warehouse_states result.Core.Engine.trace "V")

(* ------------------------------------------------------------------ *)
(* Source site                                                         *)
(* ------------------------------------------------------------------ *)

let source_event_log () =
  let source = Source_site.Source.create (small_db ()) in
  Source_site.Source.execute_update source (ins "r2" [ 2; 3 ]);
  let answer, cost =
    Source_site.Source.answer_query source ~id:0
      (R.Query.of_view (view_w ()))
  in
  check_bag "answer against current state" (bag [ [ 1 ] ]) answer;
  check_bool "io charged" true (cost.Storage.Cost.io > 0);
  let events = Source_site.Source.events source in
  let count p = List.length (List.filter p events) in
  check_int "one update logged" 1
    (count (function Source_site.Source.S_up _ -> true | _ -> false));
  check_int "one query logged" 1
    (count (function Source_site.Source.S_qu _ -> true | _ -> false));
  check_int "logged io is the answer's"
    cost.Storage.Cost.io
    (List.fold_left
       (fun io -> function
         | Source_site.Source.S_qu { cost; _ } -> io + cost.Storage.Cost.io
         | _ -> io)
       0 events)

(* ------------------------------------------------------------------ *)
(* Run guards                                                          *)
(* ------------------------------------------------------------------ *)

let runner_rejects_bad_batch () =
  match
    run ~algorithm:"eca" ~views:[ view_w () ] ~db:(small_db ()) ~updates:[] ()
    |> ignore;
    Core.Engine.run ~batch_size:0 ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source (small_db ()) ] ~views:[ vd (view_w ()) ] ~updates:[] ()
  with
  | exception Core.Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected Run_error"

let runner_empty_workload () =
  let result =
    run ~algorithm:"eca" ~views:[ view_w () ] ~db:(small_db ()) ~updates:[] ()
  in
  check_int "no steps beyond the probe" 0
    result.Core.Engine.metrics.Core.Metrics.updates;
  check_bool "trivially complete" true
    (report result "V").Core.Consistency.complete

let runner_update_numbering () =
  let db = small_db () in
  let result =
    run ~algorithm:"eca" ~views:[ view_w () ] ~db
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r2" [ 2; 4 ] ]
      ()
  in
  let seqs =
    List.concat_map
      (function
        | Core.Trace.Source_update { updates; _ } ->
          List.map (fun (u : R.Update.t) -> u.R.Update.seq) updates
        | _ -> [])
      (Core.Trace.entries result.Core.Engine.trace)
  in
  Alcotest.(check (list int)) "sequence numbers assigned" [ 1; 2 ] seqs

let mixed_algorithms () =
  let db =
    db_of
      [ (r1_wkey, [ [ 1; 2 ] ]); (r2_ykey, [ [ 2; 3 ] ]); (r3, []) ]
  in
  let keyed = view_wy ~name:"K" ~r1:r1_wkey ~r2:r2_ykey () in
  (* the plain view must range over the keyed schemas present in this db *)
  let plain =
    R.View.natural_join ~name:"P" ~proj:[ R.Attr.unqualified "W" ]
      [ r1_wkey; r2_ykey ]
  in
  let updates = [ ins "r2" [ 2; 4 ]; del "r1" [ 1; 2 ]; ins "r1" [ 7; 2 ] ] in
  let entries =
    [
      Core.Catalog.entry ~algo:"eca-key" (R.Viewdef.simple keyed);
      Core.Catalog.entry ~algo:"eca" (R.Viewdef.simple plain);
    ]
  in
  let result =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:(Core.Catalog.creator entries) ~sites:[ source db ]
      ~views:(Core.Catalog.views entries) ~updates ()
  in
  List.iter
    (fun name ->
      check_bool (name ^ " strongly consistent") true
        (report result name).Core.Consistency.strongly_consistent;
      check_bag (name ^ " matches truth")
        (List.assoc name result.Core.Engine.final_source_views)
        (List.assoc name result.Core.Engine.final_mvs))
    [ "K"; "P" ]

(* An oracle reference independent of the engine: every recorded source
   state must equal the view evaluated from scratch over the initial
   database plus the stream prefix executed so far — for every rung's
   traffic pattern, batch size, coalescing mode and schedule extreme, on
   a signed (insert/delete) stream. *)
let oracle_replays_stream_prefix () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:30 ~j:3 ~k_updates:24 ~insert_ratio:0.6 ~seed:9 ())
  in
  (* Then same-class blocks that join each other, inserted and deleted
     again, so coalescing has runs to merge. *)
  let block op =
    List.concat_map (fun rel -> List.map (fun i -> op rel [ i; i ]) [ 0; 1; 2 ])
  in
  let updates =
    updates @ block ins [ "r1"; "r2"; "r3" ] @ block del [ "r3"; "r1"; "r2" ]
  in
  let vd = vd view in
  List.iter
    (fun (algorithm, batch_size, coalesce, schedule) ->
      let result =
        Core.Engine.run ~schedule ~batch_size ~coalesce
          ~creator:(Core.Registry.creator_exn algorithm) ~sites:[ source db ]
          ~views:[ vd ] ~updates ()
      in
      let label =
        Printf.sprintf "%s batch=%d coalesce=%b %s" algorithm batch_size
          coalesce
          (if schedule = Core.Scheduler.Best_case then "best" else "worst")
      in
      let applied =
        List.fold_left
          (fun prefix -> function
            | Core.Trace.Source_update { updates = us; source_views } ->
              let prefix = prefix @ us in
              check_bag
                (Printf.sprintf "%s: state after %d updates" label
                   (List.length prefix))
                (R.Viewdef.eval (R.Db.apply_all db prefix) vd)
                (List.assoc "V" source_views);
              prefix
            | _ -> prefix)
          []
          (Core.Trace.entries result.Core.Engine.trace)
      in
      check_int (label ^ ": every update recorded") (List.length updates)
        (List.length applied))
    (List.concat_map
       (fun algorithm ->
         List.concat_map
           (fun batch_size ->
             List.concat_map
               (fun coalesce ->
                 List.map
                   (fun schedule -> (algorithm, batch_size, coalesce, schedule))
                   [ Core.Scheduler.Best_case; Core.Scheduler.Worst_case ])
               [ false; true ])
           [ 1; 4 ])
       [ "eca"; "sc"; "rv" ])

(* The engine's incremental oracle (staged deltas applied to the
   previous snapshot) must record exactly the source states a full
   recomputation gives — [Viewdef.eval] over the initial database plus
   every update event so far — across schedules, batch sizes and a
   signed (delete-heavy) stream, with the same final source view and the
   same consistency verdict. *)
let oracle_modes_agree () =
  let db =
    db_of
      [
        (r1, [ [ 1; 2 ]; [ 4; 2 ]; [ 5; 3 ] ]);
        (r2, [ [ 2; 7 ]; [ 3; 7 ] ]);
      ]
  in
  let updates =
    [
      ins "r2" [ 2; 9 ]; del "r1" [ 1; 2 ]; ins "r1" [ 6; 3 ];
      del "r2" [ 3; 7 ]; ins "r2" [ 3; 8 ];
    ]
  in
  let vd = vd (view_w ()) in
  List.iter
    (fun (label, schedule, batch_size) ->
      let inc =
        Core.Engine.run ~schedule ~batch_size
          ~creator:(Core.Registry.creator_exn "eca") ~sites:[ source db ]
          ~views:[ vd ] ~updates ()
      in
      let trace = inc.Core.Engine.trace in
      let _, recomputed =
        List.fold_left
          (fun (prefix, states) -> function
            | Core.Trace.Source_update { updates = us; _ } ->
              let prefix = prefix @ us in
              (prefix, R.Viewdef.eval (R.Db.apply_all db prefix) vd :: states)
            | _ -> (prefix, states))
          ([], [ R.Viewdef.eval db vd ])
          (Core.Trace.entries trace)
      in
      let recomputed = List.rev recomputed in
      Alcotest.(check (list bag_testable))
        (label ^ ": identical source-state sequences")
        recomputed
        (Core.Trace.source_states trace "V");
      check_bag
        (label ^ ": identical final source views")
        (R.Viewdef.eval (R.Db.apply_all db updates) vd)
        (List.assoc "V" inc.Core.Engine.final_source_views);
      Alcotest.(check bool)
        (label ^ ": same consistency verdict")
        true
        ((Core.Consistency.check ~source_states:recomputed
            ~warehouse_states:(Core.Trace.warehouse_states trace "V"))
           .Core.Consistency.strongly_consistent
        = (report inc "V").Core.Consistency.strongly_consistent))
    [
      ("best", Core.Scheduler.Best_case, 1);
      ("worst", Core.Scheduler.Worst_case, 1);
      ("batched", Core.Scheduler.Best_case, 2);
    ]

let metrics_accounting () =
  let db = small_db () in
  let result =
    run ~algorithm:"eca" ~views:[ view_w () ] ~db
      ~updates:[ ins "r2" [ 2; 3 ] ] ()
  in
  let m = result.Core.Engine.metrics in
  check_int "M = q + a" (Core.Metrics.messages m)
    (m.Core.Metrics.queries_sent + m.Core.Metrics.answers_received);
  check_int "B for S=10" (10 * m.Core.Metrics.answer_tuples)
    (Core.Metrics.bytes_for ~s:10 m)

let suite =
  [
    Alcotest.test_case "trace state sequences" `Quick trace_state_sequences;
    Alcotest.test_case "trace for unknown views" `Quick
      trace_unknown_view_is_empty;
    Alcotest.test_case "trace entry order" `Quick trace_entry_order;
    Alcotest.test_case "warehouse routes answers" `Quick
      warehouse_routes_answers;
    Alcotest.test_case "shared routes stay owner-first" `Quick
      shared_route_order_pins_owner_first;
    Alcotest.test_case "warehouse absorbs misrouted messages" `Quick
      warehouse_absorbs_misrouted_messages;
    Alcotest.test_case "install history" `Quick trace_records_installs;
    Alcotest.test_case "source event log" `Quick source_event_log;
    Alcotest.test_case "runner rejects bad batch size" `Quick
      runner_rejects_bad_batch;
    Alcotest.test_case "runner on an empty workload" `Quick
      runner_empty_workload;
    Alcotest.test_case "runner numbers updates" `Quick runner_update_numbering;
    Alcotest.test_case "mixed algorithms per view" `Quick mixed_algorithms;
    Alcotest.test_case "oracle = eval over each stream prefix" `Quick
      oracle_replays_stream_prefix;
    Alcotest.test_case "oracle modes agree" `Quick oracle_modes_agree;
    Alcotest.test_case "metrics accounting" `Quick metrics_accounting;
  ]
