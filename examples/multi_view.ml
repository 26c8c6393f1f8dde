(* One source, several materialized views — the Section-7 adaptation:
   "in a warehouse consisting of multiple views where each view is over
   data from a single source, ECA is simply applied to each view
   separately." Every update notification fans out to all hosted views;
   each maintains its own UQS and COLLECT.

   Run with: dune exec examples/multi_view.exe *)

module R = Relational

let () =
  let spec = Workload.Spec.make ~c:50 ~j:4 ~k_updates:20 ~seed:11 () in
  let { Workload.Scenarios.db; view = v_chain; updates } =
    Workload.Scenarios.example6 spec
  in
  (* Three views of very different shapes over the same base data. *)
  let r1 = Workload.Generator.chain_r1 in
  let r2 = Workload.Generator.chain_r2 in
  let r3 = Workload.Generator.chain_r3 in
  let v_pairs =
    R.View.natural_join ~name:"pairs"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r2" "Y" ]
      [ r1; r2 ]
  in
  let v_big =
    R.View.make ~name:"big_w"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r1" "X" ]
      ~cond:(R.Parser.parse_predicate "W > 500")
      [ r1 ]
  in
  let v_tail =
    R.View.natural_join ~name:"tail"
      ~proj:[ R.Attr.qualified "r2" "X"; R.Attr.qualified "r3" "Z" ]
      [ r2; r3 ]
  in
  let views = [ v_chain; v_pairs; v_big; v_tail ] in
  List.iter (fun v -> Format.printf "%a@." R.View.pp v) views;

  let result =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 3)
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ Core.Engine.site ~name:"source" db ]
      ~views:(List.map R.Viewdef.simple views) ~updates ()
  in
  Format.printf "@.%d updates, %d queries, %d messages total@."
    result.Core.Engine.metrics.Core.Metrics.updates
    result.Core.Engine.metrics.Core.Metrics.queries_sent
    (Core.Metrics.messages result.Core.Engine.metrics);
  List.iter
    (fun (name, report) ->
      let mv = List.assoc name result.Core.Engine.final_mvs in
      let truth = List.assoc name result.Core.Engine.final_source_views in
      Format.printf "%-8s %4d tuples, matches source: %b, %s@." name
        (R.Bag.net_cardinality mv)
        (R.Bag.equal mv truth)
        (Core.Consistency.strongest_label report))
    result.Core.Engine.reports;
  Format.printf
    "@.Note: the single-relation view 'big_w' never queried the source -@.\
     its maintenance queries contain no base relation after substitution@.\
     and are evaluated entirely at the warehouse.@."
