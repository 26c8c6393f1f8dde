(* Remaining API-surface coverage: JSON trace entries for every event
   kind, Viewdef pretty-printing, compound-view scripts end to end,
   federation under every creator, and timing wrappers over the keyed
   algorithm. *)

open Helpers
module R = Relational

let json_covers_all_entry_kinds () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let result =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case ~rv_period:3
      ~batch_size:2 ~creator:(Core.Registry.creator_exn "rv")
      ~sites:[ source db ] ~views:[ vd (view_w ()) ]
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r2" [ 2; 4 ] ] ()
  in
  (* rv with period 3 and k=2 forces a quiesce-probe recompute; batch=2
     forces a Batch note; so the trace has every entry kind *)
  let entries = Core.Trace.entries result.Core.Engine.trace in
  let kinds =
    List.sort_uniq String.compare
      (List.map
         (function
           | Core.Trace.Source_update _ -> "su"
           | Core.Trace.Source_answer _ -> "sa"
           | Core.Trace.Warehouse_note _ -> "wn"
           | Core.Trace.Warehouse_answer _ -> "wa"
           | Core.Trace.Quiesce_probe _ -> "qp"
           | Core.Trace.Source_ddl _ -> "sd"
           | Core.Trace.Warehouse_ddl _ -> "wd")
         entries)
  in
  Alcotest.(check (list string))
    "all five kinds present"
    [ "qp"; "sa"; "su"; "wa"; "wn" ]
    kinds;
  List.iter
    (fun e ->
      let json = Core.Json_export.trace_entry e in
      check_bool "entry serializes" true (String.length json > 2))
    entries

let viewdef_pp_shapes () =
  let a =
    R.View.make ~name:"A" ~proj:[ R.Attr.qualified "r1" "W" ]
      ~cond:R.Predicate.True [ r1 ]
  in
  let b =
    R.View.make ~name:"B" ~proj:[ R.Attr.qualified "r2" "X" ]
      ~cond:R.Predicate.True [ r2 ]
  in
  let simple = R.Viewdef.simple a in
  check_bool "simple prints like a view" true
    (String.length (R.Viewdef.to_string simple) > 0);
  let u = R.Viewdef.union (R.Viewdef.simple a) (R.Viewdef.simple b) in
  let printed = R.Viewdef.to_string u in
  check_bool "union shows UNION" true
    (String.length printed > 0
     && String.split_on_char 'U' printed <> [ printed ]);
  let d = R.Viewdef.diff (R.Viewdef.simple a) (R.Viewdef.simple b) in
  check_bool "diff shows EXCEPT" true
    (String.split_on_char 'E' (R.Viewdef.to_string d)
     <> [ R.Viewdef.to_string d ]);
  check_int "arity" 1 (R.Viewdef.output_arity u)

let compound_script_end_to_end () =
  (* a UNION/EXCEPT view defined in the script language, maintained by
     ECA through the full simulator *)
  let script =
    R.Parser.parse_script
      {|
TABLE a (N INT, M INT);
TABLE b (N INT, M INT);
VIEW u AS SELECT a.N FROM a UNION SELECT b.N FROM b
          EXCEPT SELECT a.N FROM a WHERE a.M > 10;
INSERT INTO a VALUES (1, 5);
INSERT INTO b VALUES (2, 0);
UPDATES;
INSERT INTO a VALUES (3, 20);
INSERT INTO b VALUES (1, 1);
DELETE FROM a VALUES (1, 5);
|}
  in
  let db = R.Script.initial_db script in
  let result =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:(Core.Registry.creator_exn "eca") ~sites:[ source db ]
      ~views:script.R.Script.views ~updates:script.R.Script.updates ()
  in
  (* final: a = {(3,20)}, b = {(2,0),(1,1)}; u = {3} + {2,1} - {3} = {1,2} *)
  check_bag "compound script maintained"
    (bag [ [ 1 ]; [ 2 ] ])
    (List.assoc "u" result.Core.Engine.final_mvs);
  check_bool "strongly consistent" true
    (List.assoc "u" result.Core.Engine.reports)
      .Core.Consistency.strongly_consistent

let federation_with_other_algorithms () =
  let emp = R.Schema.of_names "emp" [ "EID"; "DID" ] in
  let dept = R.Schema.of_names "dept" [ "DID"; "B" ] in
  let hr =
    R.Db.of_list
      [ (emp, bag [ [ 1; 10 ] ]); (dept, bag [ [ 10; 7 ] ]) ]
  in
  let v =
    R.View.natural_join ~name:"v"
      ~proj:[ R.Attr.unqualified "EID"; R.Attr.unqualified "B" ]
      [ emp; dept ]
  in
  let updates = [ ins "emp" [ 2; 10 ]; del "dept" [ 10; 7 ] ] in
  List.iter
    (fun algorithm ->
      let r =
        Core.Engine.run ~schedule:Core.Scheduler.Worst_case
          ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Core.Engine.site ~name:"hr" hr ] ~views:[ vd v ] ~updates ()
      in
      check_bag (algorithm ^ " correct in a federation") R.Bag.empty
        (List.assoc "v" r.Core.Engine.final_mvs))
    [ "eca"; "lca"; "sc"; "rv" ]

let timing_wraps_ecak () =
  let db = db_of [ (r1_wkey, [ [ 1; 2 ] ]); (r2_ykey, [ [ 2; 3 ] ]) ] in
  let view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let updates = [ ins "r2" [ 2; 4 ]; del "r1" [ 1; 2 ]; ins "r1" [ 5; 2 ] ] in
  let result =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:
        (Core.Timing.creator (Core.Timing.Periodic 2)
           (Core.Registry.creator_exn "eca-key"))
      ~sites:[ source db ] ~views:[ R.Viewdef.simple view ] ~updates ()
  in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  check_bag "periodic ECAK correct" truth
    (List.assoc "V" result.Core.Engine.final_mvs)

let quiesce_probe_installs_are_tracked () =
  (* deferred timing installs at the quiesce probe; the trace must carry
     those installs so the checkers see the state *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let result =
    Core.Engine.run
      ~creator:
        (Core.Timing.creator Core.Timing.Deferred
           (Core.Registry.creator_exn "eca"))
      ~sites:[ source db ] ~views:[ vd (view_w ()) ]
      ~updates:[ ins "r2" [ 2; 3 ] ] ()
  in
  let states = Core.Trace.warehouse_states result.Core.Engine.trace "V" in
  check_bag "final deferred state recorded" (bag [ [ 1 ] ])
    (List.nth states (List.length states - 1))

let suite =
  [
    Alcotest.test_case "json covers all trace entry kinds" `Quick
      json_covers_all_entry_kinds;
    Alcotest.test_case "viewdef printing shapes" `Quick viewdef_pp_shapes;
    Alcotest.test_case "compound script end to end" `Quick
      compound_script_end_to_end;
    Alcotest.test_case "federation with other algorithms" `Quick
      federation_with_other_algorithms;
    Alcotest.test_case "timing wraps ECAK" `Quick timing_wraps_ecak;
    Alcotest.test_case "quiesce-probe installs tracked" `Quick
      quiesce_probe_installs_are_tracked;
  ]
