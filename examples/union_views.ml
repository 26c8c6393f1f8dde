(* Views with UNION and EXCEPT (the Section 7 "more complex relational
   algebra" extension), driven through the script language: a warehouse
   tracks watchlisted transactions — all large transfers plus all
   transfers by flagged accounts, except those already cleared by audit.

   Run with: dune exec examples/union_views.exe *)

module R = Relational

let script_text =
  {|
TABLE transfers (tid INT KEY, acct INT, amount INT);
TABLE flagged (acct INT);
TABLE cleared (tid INT);

VIEW watchlist AS
  SELECT tid, transfers.acct, amount FROM transfers WHERE amount > 900
  UNION
  SELECT tid, transfers.acct, amount FROM transfers, flagged
    WHERE transfers.acct = flagged.acct
  EXCEPT
  SELECT transfers.tid, acct, amount FROM transfers, cleared
    WHERE transfers.tid = cleared.tid AND amount > 900;

INSERT INTO transfers VALUES (1, 10, 950);
INSERT INTO transfers VALUES (2, 11, 120);
INSERT INTO transfers VALUES (3, 12, 400);
INSERT INTO flagged VALUES (12);

UPDATES;
INSERT INTO transfers VALUES (4, 12, 80);   -- flagged account strikes again
INSERT INTO flagged VALUES (11);            -- account 11 becomes suspicious
INSERT INTO cleared VALUES (1);             -- audit clears the big one
INSERT INTO transfers VALUES (5, 13, 9000); -- a whale appears
DELETE FROM flagged VALUES (12);            -- account 12 is exonerated
|}

let () =
  let script = R.Parser.parse_script script_text in
  let db = R.Script.initial_db script in
  let view = List.hd script.R.Script.views in
  Format.printf "%a@.@." R.Viewdef.pp view;
  Format.printf "initial watchlist:@.%s@."
    (R.Render.table
       ~columns:(R.Viewdef.output_attr_names view)
       (R.Viewdef.eval db view));
  List.iter
    (fun algorithm ->
      let result =
        Core.Engine.run ~schedule:Core.Scheduler.Worst_case
          ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Core.Engine.site ~name:"source" db ] ~views:[ view ]
          ~updates:script.R.Script.updates ()
      in
      let report = List.assoc "watchlist" result.Core.Engine.reports in
      Format.printf "--- %s (all updates race the queries) ---@." algorithm;
      print_string
        (R.Render.table
           ~columns:(R.Viewdef.output_attr_names view)
           (List.assoc "watchlist" result.Core.Engine.final_mvs));
      Format.printf "verdict: %s@.@."
        (Core.Consistency.strongest_label report))
    [ "basic"; "eca"; "lca" ];
  Format.printf
    "The compound view's maintenance queries are just longer signed sums@.of \
     terms — compensation is linear, so ECA and LCA carry over unchanged,@.\
     while the conventional algorithm mangles the racing flag updates.@."
