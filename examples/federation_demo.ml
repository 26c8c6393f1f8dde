(* A warehouse over two autonomous sources (Section 7's multi-source
   adaptation): the HR system owns employees/departments, the order-entry
   system owns orders/customers. Each materialized view ranges over a
   single source, so ECA applies per view with no cross-source
   coordination — exactly the case the paper says generalizes "readily".

   Run with: dune exec examples/federation_demo.exe *)

module R = Relational
module S = Core.Scheduler

let () =
  let emp = R.Schema.of_names "emp" [ "EID"; "DID" ] in
  let dept = R.Schema.of_names "dept" [ "DID"; "HEADCOUNT" ] in
  let ord = R.Schema.of_names "ord" [ "OID"; "CID" ] in
  let cust = R.Schema.of_names "cust" [ "CID"; "TIER" ] in
  let hr_db =
    R.Db.of_list
      [
        (emp, R.Bag.of_list [ R.Tuple.ints [ 1; 10 ]; R.Tuple.ints [ 2; 20 ] ]);
        (dept, R.Bag.of_list [ R.Tuple.ints [ 10; 5 ]; R.Tuple.ints [ 20; 9 ] ]);
      ]
  in
  let sales_db =
    R.Db.of_list
      [
        (ord, R.Bag.of_list [ R.Tuple.ints [ 100; 7 ] ]);
        (cust, R.Bag.of_list [ R.Tuple.ints [ 7; 1 ]; R.Tuple.ints [ 8; 2 ] ]);
      ]
  in
  let v_hr =
    R.View.natural_join ~name:"emp_headcount"
      ~proj:[ R.Attr.unqualified "EID"; R.Attr.unqualified "HEADCOUNT" ]
      [ emp; dept ]
  in
  let v_sales =
    R.View.natural_join ~name:"ord_tier"
      ~proj:[ R.Attr.unqualified "OID"; R.Attr.unqualified "TIER" ]
      [ ord; cust ]
  in
  let updates =
    [
      R.Update.insert "emp" (R.Tuple.ints [ 3; 20 ]);
      R.Update.insert "ord" (R.Tuple.ints [ 101; 8 ]);
      R.Update.delete "emp" (R.Tuple.ints [ 1; 10 ]);
      R.Update.insert "cust" (R.Tuple.ints [ 9; 3 ]);
      R.Update.insert "ord" (R.Tuple.ints [ 102; 9 ]);
      R.Update.delete "dept" (R.Tuple.ints [ 10; 5 ]);
    ]
  in
  Format.printf "%a@.%a@.@." R.View.pp v_hr R.View.pp v_sales;
  List.iter
    (fun (label, schedule) ->
      let result =
        Core.Engine.run ~schedule
          ~creator:(Core.Registry.creator_exn "eca")
          ~sites:
            [
              Core.Engine.site ~name:"hr" hr_db;
              Core.Engine.site ~name:"sales" sales_db;
            ]
          ~views:(List.map R.Viewdef.simple [ v_hr; v_sales ])
          ~updates ()
      in
      Format.printf "--- policy: %s ---@." label;
      List.iter
        (fun (name, report) ->
          Format.printf "%-14s = %a (%s)@." name R.Bag.pp
            (List.assoc name result.Core.Engine.final_mvs)
            (Core.Consistency.strongest_label report))
        result.Core.Engine.reports;
      Format.printf "messages: %d, source IO: %d@.@."
        (Core.Metrics.messages result.Core.Engine.metrics)
        result.Core.Engine.metrics.Core.Metrics.source_io)
    [
      ("drain between updates", S.Best_case);
      ("all updates race everything", S.Worst_case);
      ("random interleaving", S.Random 7);
    ];
  Format.printf
    "Updates at one source never disturb the other source's views;@.each \
     view's compensation bookkeeping is entirely local to its pair of@.FIFO \
     channels, which is why per-view ECA suffices here.@."
