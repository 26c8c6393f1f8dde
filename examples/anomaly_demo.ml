(* The two anomaly examples of the paper (Examples 2 and 3), replayed
   event by event with the full trace printed, for both the conventional
   algorithm and ECA.

   Run with: dune exec examples/anomaly_demo.exe *)

module R = Relational

let schedule =
  (* S_up U1; W_up U1; S_up U2; W_up U2; S_qu Q1; W_ans A1; S_qu Q2;
     W_ans A2 — the exact event order of Examples 2 and 3. *)
  Core.Scheduler.Explicit
    Core.Scheduler.
      [
        Apply_update; Warehouse_receive; Apply_update; Warehouse_receive;
        Source_receive; Warehouse_receive; Source_receive; Warehouse_receive;
      ]

let demo ~title ~db ~view ~updates =
  Format.printf "@.===== %s =====@." title;
  Format.printf "view: %a@." R.View.pp view;
  List.iter
    (fun algorithm ->
      let result =
        Core.Engine.run ~schedule ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Core.Engine.site ~name:"source" db ]
          ~views:[ R.Viewdef.simple view ] ~updates ()
      in
      Format.printf "@.--- %s ---@." algorithm;
      Format.printf "%a" Core.Trace.pp result.Core.Engine.trace;
      let report = List.assoc "V" result.Core.Engine.reports in
      Format.printf "final MV      : %a@." R.Bag.pp
        (List.assoc "V" result.Core.Engine.final_mvs);
      Format.printf "source truth  : %a@." R.Bag.pp
        (List.assoc "V" result.Core.Engine.final_source_views);
      Format.printf "verdict       : %a@." Core.Consistency.pp report)
    [ "basic"; "eca" ]

let () =
  let r1 = R.Schema.of_names "r1" [ "W"; "X" ] in
  let r2 = R.Schema.of_names "r2" [ "X"; "Y" ] in

  (* Example 2: two racing inserts duplicate a view tuple. *)
  demo ~title:"Example 2: insertion anomaly"
    ~db:
      (R.Db.of_list
         [
           (r1, R.Bag.of_list [ R.Tuple.ints [ 1; 2 ] ]);
           (r2, R.Bag.empty);
         ])
    ~view:
      (R.View.natural_join ~name:"V"
         ~proj:[ R.Attr.unqualified "W" ]
         [ r1; r2 ])
    ~updates:
      [
        R.Update.insert "r2" (R.Tuple.ints [ 2; 3 ]);
        R.Update.insert "r1" (R.Tuple.ints [ 4; 2 ]);
      ];

  (* Example 3: two racing deletions leave a ghost tuple behind. *)
  demo ~title:"Example 3: deletion anomaly"
    ~db:
      (R.Db.of_list
         [
           (r1, R.Bag.of_list [ R.Tuple.ints [ 1; 2 ] ]);
           (r2, R.Bag.of_list [ R.Tuple.ints [ 2; 3 ] ]);
         ])
    ~view:
      (R.View.natural_join ~name:"V"
         ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Y" ]
         [ r1; r2 ])
    ~updates:
      [
        R.Update.delete "r1" (R.Tuple.ints [ 1; 2 ]);
        R.Update.delete "r2" (R.Tuple.ints [ 2; 3 ]);
      ]
