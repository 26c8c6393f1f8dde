(* The multi-view warehouse catalog (DESIGN.md §4h): N registered views,
   each on its own algorithm rung, one shared event loop — and the
   shared-delta (MQO) maintenance layered on top.

   The load-bearing property is equivalence: a catalog of N views must
   behave, per view, exactly like N independent single-view runs — same
   installed-state sequences, same consistency verdicts, same final
   views. The seed sweep checks it across scheduling policies and the
   fault x reliability matrix where the per-view event subsequences are
   well defined (clean channels, or faulty channels under the Reliable
   sublayer's exactly-once FIFO restoration).

   Sharing then has to be a pure optimization: fewer queries on the
   wire, identical view lifecycles. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* The rung ladder and catalog validation                              *)
(* ------------------------------------------------------------------ *)

let auto_rung_ladder () =
  (* keys of every base projected -> ECAK *)
  Alcotest.(check string)
    "keys covered -> eca-key" "eca-key"
    (Core.Catalog.auto_rung (vd (view_wy ~r1:r1_wkey ~r2:r2_ykey ())));
  (* r1's key W projected, keyless r2 blocks full coverage -> ECAL *)
  let half_keyed =
    R.View.natural_join ~name:"H"
      ~proj:[ R.Attr.unqualified "W" ]
      [ r1_wkey; r2 ]
  in
  Alcotest.(check string)
    "one local delete class -> eca-local" "eca-local"
    (Core.Catalog.auto_rung (vd half_keyed));
  (* keyless everywhere -> the universal compensating fallback *)
  Alcotest.(check string)
    "keyless -> eca" "eca"
    (Core.Catalog.auto_rung (vd (view_w ())));
  let e = Core.Catalog.entry (vd (view_w ())) in
  Alcotest.(check string) "entry defaults to auto_rung" "eca" e.Core.Catalog.algo

let catalog_validation () =
  let v name = vd (view_w ~name ()) in
  let raises_catalog f =
    match f () with
    | exception Core.Catalog.Catalog_error _ -> true
    | _ -> false
  in
  check_bool "unknown algorithm key rejected at entry" true
    (raises_catalog (fun () -> Core.Catalog.entry ~algo:"nope" (v "A")));
  check_bool "empty catalog rejected" true
    (raises_catalog (fun () -> Core.Catalog.creator []));
  check_bool "duplicate view names rejected" true
    (raises_catalog (fun () ->
         Core.Catalog.creator
           [ Core.Catalog.entry (v "A"); Core.Catalog.entry (v "A") ]));
  (* and the same errors stop an engine run over the catalog *)
  check_bool "an engine run over an empty catalog is rejected" true
    (raises_catalog (fun () ->
         Core.Engine.run ~creator:(Core.Catalog.creator [])
           ~sites:[ source R.Db.empty ] ~views:(Core.Catalog.views [])
           ~updates:[] ()))

(* ------------------------------------------------------------------ *)
(* Catalog-of-N = N single-view runs, across the fault matrix          *)
(* ------------------------------------------------------------------ *)

(* A seeded db + update stream over the three keyless base relations. *)
let stream_of_seed seed =
  let st = rng seed in
  let tuple () =
    R.Tuple.ints [ Random.State.int st 5; Random.State.int st 5 ]
  in
  let rows n = R.Bag.of_list (List.init n (fun _ -> tuple ())) in
  let db =
    R.Db.of_list
      [ (r1, rows 4); (r2, rows 4); (r3, rows 3) ]
  in
  let rels = [| "r1"; "r2"; "r3" |] in
  let n = 3 + Random.State.int st 4 in
  let _, updates =
    List.fold_left
      (fun (db, acc) _ ->
        let rel = rels.(Random.State.int st 3) in
        let t = tuple () in
        let u =
          if Random.State.bool st || R.Bag.count (R.Db.contents db rel) t <= 0
          then R.Update.insert rel t
          else R.Update.delete rel t
        in
        (R.Db.apply db u, u :: acc))
      (db, [])
      (List.init n Fun.id)
  in
  (db, List.rev updates)

(* Three views on three different rungs — enough shapes that an
   equivalence bug in routing, lifting or sharing shows up somewhere. *)
let entries () =
  [
    Core.Catalog.entry ~algo:"eca" (vd (view_w ~name:"A" ()));
    Core.Catalog.entry ~algo:"lca" (vd (view_wy ~name:"B" ()));
    Core.Catalog.entry ~algo:"eca" (vd (view_w3 ~name:"C" ()));
  ]

(* The scenarios where per-view event subsequences are well defined:
   clean channels raw or reliable, and every fault profile under the
   Reliable sublayer (which restores exactly-once FIFO). *)
let scenarios =
  [
    ("worst/clean", Core.Scheduler.Worst_case, None, false);
    ("best/clean", Core.Scheduler.Best_case, None, false);
    ("best/reliable", Core.Scheduler.Best_case, None, true);
    ( "worst/loss",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~drop:0.3 ()),
      true );
    ( "worst/dup",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~duplicate:0.4 ()),
      true );
    ( "worst/delay",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~delay:3 ()),
      true );
    ( "worst/reorder",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~reorder:true ()),
      true );
    ( "worst/chaos",
      Core.Scheduler.Worst_case,
      Some Workload.Scenarios.chaos_profile,
      true );
  ]

let equivalent_under ~schedule ~fault ~reliable seed =
  let db, updates = stream_of_seed seed in
  let entries = entries () in
  let catalog_run =
    Core.Engine.run ~schedule ~share_deltas:false
      ~creator:(Core.Catalog.creator entries)
      ~sites:[ source ?fault ~fault_seed:seed ~reliable db ]
      ~views:(Core.Catalog.views entries) ~updates ()
  in
  List.for_all
    (fun (e : Core.Catalog.entry) ->
      let name = e.Core.Catalog.view.R.Viewdef.name in
      let solo =
        Core.Engine.run ~schedule
          ~creator:(Core.Registry.creator_exn e.Core.Catalog.algo)
          ~sites:[ source ?fault ~fault_seed:seed ~reliable db ]
          ~views:[ e.Core.Catalog.view ] ~updates ()
      in
      R.Bag.equal
        (List.assoc name catalog_run.Core.Engine.final_mvs)
        (List.assoc name solo.Core.Engine.final_mvs)
      && List.assoc name catalog_run.Core.Engine.reports
         = List.assoc name solo.Core.Engine.reports
      && List.for_all2 R.Bag.equal
           (Core.Trace.warehouse_states catalog_run.Core.Engine.trace name)
           (Core.Trace.warehouse_states solo.Core.Engine.trace name))
    entries

(* The 40-seed sweep fans out over the shared domain pool; results come
   back in seed order, so failure messages match the sequential sweep. *)
let catalog_equals_single_view_runs () =
  List.iter
    (fun (label, schedule, fault, reliable) ->
      List.iter
        (fun (seed, ok) ->
          check_bool (Printf.sprintf "%s seed %d" label seed) true ok)
        (par_map
           (fun seed ->
             (seed, equivalent_under ~schedule ~fault ~reliable seed))
           (List.init 40 (fun i -> i))))
    scenarios

(* ------------------------------------------------------------------ *)
(* Shared-delta (MQO) maintenance                                      *)
(* ------------------------------------------------------------------ *)

(* Four structurally equal views: every update raises four equal delta
   queries in one warehouse event — the sharing table's best case. *)
let quad_entries () =
  List.map
    (fun name -> Core.Catalog.entry ~algo:"eca" (vd (view_w ~name ())))
    [ "A"; "B"; "C"; "D" ]

let quad_setup () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 3; 4 ] ]); (r2, [ [ 2; 5 ] ]) ] in
  let updates =
    [ ins "r2" [ 4; 6 ]; ins "r1" [ 7; 4 ]; del "r2" [ 2; 5 ] ]
  in
  (db, updates)

(* The benchmark's [compensate] shape: keyed r1(W KEY, X) ⋈ r2(X, Y KEY)
   under three projections, one per query rung. No two of their queries
   are equal, so every hit subscribes to a widened projection. *)
let projection_entries () =
  let v name proj = vd (R.View.natural_join ~name ~proj [ r1_wkey; r2_ykey ]) in
  let q = R.Attr.qualified in
  [
    Core.Catalog.entry ~algo:"eca-key" (v "WY" [ q "r1" "W"; q "r2" "Y" ]);
    Core.Catalog.entry ~algo:"eca-local" (v "XY" [ q "r2" "X"; q "r2" "Y" ]);
    Core.Catalog.entry ~algo:"eca" (v "WX" [ q "r1" "W"; q "r1" "X" ]);
  ]

(* Key-respecting: W and Y values never repeat among live tuples. *)
let projection_setup () =
  let db = db_of [ (r1_wkey, [ [ 1; 2 ]; [ 3; 4 ] ]); (r2_ykey, [ [ 2; 5 ]; [ 4; 6 ] ]) ] in
  let updates =
    [
      ins "r1" [ 5; 2 ]; ins "r2" [ 2; 7 ]; del "r1" [ 1; 2 ]; ins "r2" [ 4; 8 ];
      del "r2" [ 2; 5 ]; ins "r1" [ 6; 4 ]; del "r1" [ 5; 2 ]; del "r2" [ 4; 6 ];
    ]
  in
  (db, updates)

(* Union views whose two parts keep different columns: their queries'
   terms project differently, so only an equal query shares — U2 rides
   on U, while U' (the same parts, projections swapped) and S (U's first
   part alone) ship their own. *)
let union_entries () =
  let w = R.Attr.qualified "r1" "W" and y = R.Attr.qualified "r2" "Y" in
  let part name proj = vd (R.View.natural_join ~name ~proj [ r1; r2 ]) in
  let u name a b = R.Viewdef.union ~name (part (name ^ "#0") a) (part (name ^ "#1") b) in
  [
    Core.Catalog.entry ~algo:"eca" (u "U" [ w ] [ y ]);
    Core.Catalog.entry ~algo:"eca" (u "U2" [ w ] [ y ]);
    Core.Catalog.entry ~algo:"eca" (u "U'" [ y ] [ w ]);
    Core.Catalog.entry ~algo:"eca" (part "S" [ w ]);
  ]

(* One catalog run with sharing off and one with it on, under a
   deterministic schedule: per view the same final MV, verdict and
   installed-state sequence, and exactly [shared_hits] fewer queries on
   the wire. Returns the shared run's sharing counters. *)
let check_sharing label ~schedule entries (db, updates) =
  let run share =
    Core.Engine.run ~schedule ~share_deltas:share
      ~creator:(Core.Catalog.creator entries) ~sites:[ source db ]
      ~views:(Core.Catalog.views entries) ~updates ()
  in
  let off = run false and on_ = run true in
  let label s = Printf.sprintf "%s: %s" label s in
  List.iter
    (fun (e : Core.Catalog.entry) ->
      let name = e.Core.Catalog.view.R.Viewdef.name in
      check_bag
        (label (Printf.sprintf "view %s: same final MV" name))
        (List.assoc name off.Core.Engine.final_mvs)
        (List.assoc name on_.Core.Engine.final_mvs);
      Alcotest.check report_testable
        (label (Printf.sprintf "view %s: same verdict" name))
        (List.assoc name off.Core.Engine.reports)
        (List.assoc name on_.Core.Engine.reports);
      Alcotest.(check (list bag_testable))
        (label (Printf.sprintf "view %s: same installed states" name))
        (Core.Trace.warehouse_states off.Core.Engine.trace name)
        (Core.Trace.warehouse_states on_.Core.Engine.trace name))
    entries;
  (match off.Core.Engine.metrics.Core.Metrics.shared with
  | None -> ()
  | Some _ -> Alcotest.fail (label "sharing off must leave metrics.shared = None"));
  match on_.Core.Engine.metrics.Core.Metrics.shared with
  | None -> Alcotest.fail (label "sharing on must report counters")
  | Some s ->
    (* every shared gid delivers to its owner and all subscribers *)
    check_bool (label "fanout counts all subscribers") true
      (s.Core.Metrics.shared_fanout >= 2 * s.Core.Metrics.shared_evaluated);
    (* the saved messages are exactly the deduplicated queries *)
    check_int (label "saved queries = shared hits") s.Core.Metrics.shared_hits
      (off.Core.Engine.metrics.Core.Metrics.queries_sent
      - on_.Core.Engine.metrics.Core.Metrics.queries_sent);
    s

let sharing_saves_queries_and_changes_nothing () =
  (* four equal views: 4 equal queries per event collapse to 1 *)
  let s =
    check_sharing "equal views" ~schedule:Core.Scheduler.Worst_case
      (quad_entries ()) (quad_setup ())
  in
  check_bool "equal views: hits > 0" true (s.Core.Metrics.shared_hits > 0);
  check_bool "equal views: evaluated > 0" true (s.Core.Metrics.shared_evaluated > 0);
  (* projections of one join: every hit widens a shipped query *)
  List.iter
    (fun (label, schedule) ->
      let s = check_sharing label ~schedule (projection_entries ()) (projection_setup ()) in
      check_bool (label ^ ": hits > 0") true (s.Core.Metrics.shared_hits > 0))
    [
      ("projections/best", Core.Scheduler.Best_case);
      ("projections/worst", Core.Scheduler.Worst_case);
    ];
  (* unions with differently projected parts share only equal queries:
     U2's, which U always raises in the same event *)
  let db, updates = quad_setup () in
  let s =
    check_sharing "unions" ~schedule:Core.Scheduler.Worst_case (union_entries ())
      (db, updates)
  in
  let u2 = List.nth (union_entries ()) 1 in
  let solo =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:(Core.Catalog.creator [ u2 ]) ~sites:[ source db ]
      ~views:[ u2.Core.Catalog.view ] ~updates ()
  in
  check_bool "unions: U2 sends queries" true
    (solo.Core.Engine.metrics.Core.Metrics.queries_sent > 0);
  check_int "unions: hits = U2's queries" solo.Core.Engine.metrics.Core.Metrics.queries_sent
    s.Core.Metrics.shared_hits

(* Under Random scheduling, sharing changes the number of in-flight
   messages and hence the draw sequence, so the two runs take different
   interleavings — the comparable guarantee is each run's own: strongly
   consistent, and ending at the true view. (The interleaving-for-
   interleaving equality is pinned under the deterministic policies in
   [sharing_saves_queries_and_changes_nothing].) *)
(* Four projections of r1 ⋈ r2 on rungs that are all strongly
   consistent, over the keyless relations of [stream_of_seed]. *)
let mixed_projection_entries () =
  let w = R.Attr.qualified "r1" "W"
  and x = R.Attr.qualified "r1" "X"
  and y = R.Attr.qualified "r2" "Y" in
  let v name proj = vd (R.View.natural_join ~name ~proj [ r1; r2 ]) in
  [
    Core.Catalog.entry ~algo:"eca" (v "A" [ w ]);
    Core.Catalog.entry ~algo:"eca" (v "B" [ y ]);
    Core.Catalog.entry ~algo:"lca" (v "C" [ x; y ]);
    Core.Catalog.entry ~algo:"eca" (v "D" [ y; w ]);
  ]

let sharing_keeps_strong_consistency_prop =
  QCheck.Test.make
    ~name:"shared catalog stays strongly consistent on random streams"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let db, updates = stream_of_seed seed in
      let truth v = R.Viewdef.eval (R.Db.apply_all db updates) v in
      List.for_all
        (fun entries ->
          let run share =
            Core.Engine.run ~schedule:(Core.Scheduler.Random seed)
              ~share_deltas:share ~creator:(Core.Catalog.creator entries)
              ~sites:[ source db ] ~views:(Core.Catalog.views entries) ~updates ()
          in
          let off = run false and on_ = run true in
          List.for_all
            (fun (e : Core.Catalog.entry) ->
              let view = e.Core.Catalog.view in
              let name = view.R.Viewdef.name in
              List.for_all
                (fun (r : Core.Engine.result) ->
                  R.Bag.equal (truth view) (List.assoc name r.Core.Engine.final_mvs)
                  && (List.assoc name r.Core.Engine.reports)
                       .Core.Consistency.strongly_consistent)
                [ off; on_ ])
            entries)
        [ quad_entries (); mixed_projection_entries () ])

(* Two identically defined RV views batching two inserts: each view
   sends two equal recompute queries in one event. A ships both; B rides
   on each of them once — never twice on the first, which would hand B
   one answer twice and leave A's second query unshared. *)
let sharing_subscribes_an_instance_once () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let views = [ vd (view_w ~name:"A" ()); vd (view_w ~name:"B" ()) ] in
  let r =
    Core.Engine.run ~schedule:Core.Scheduler.Best_case ~batch_size:2
      ~share_deltas:true ~creator:(Core.Registry.creator_exn "rv")
      ~sites:[ source db ] ~views
      ~updates:[ ins "r1" [ 4; 2 ]; ins "r2" [ 2; 5 ] ] ()
  in
  List.iter
    (function
      | Core.Trace.Warehouse_answer { gid; installs } ->
        List.iter
          (fun name ->
            check_bool
              (Printf.sprintf "A%d binds %s at most once" gid name)
              true
              (List.length (List.filter (fun (n, _) -> n = name) installs)
              <= 1))
          [ "A"; "B" ]
      | _ -> ())
    (Core.Trace.entries r.Core.Engine.trace);
  let m = r.Core.Engine.metrics in
  (match m.Core.Metrics.shared with
  | None -> Alcotest.fail "sharing on must report counters"
  | Some s ->
    Alcotest.(check (list int))
      "evaluated, hits, fanout" [ 2; 2; 4 ]
      [
        s.Core.Metrics.shared_evaluated; s.Core.Metrics.shared_hits;
        s.Core.Metrics.shared_fanout;
      ]);
  check_int "queries sent" 2 m.Core.Metrics.queries_sent;
  List.iter
    (fun name ->
      check_bool (name ^ " strongly consistent") true
        (report r name).Core.Consistency.strongly_consistent)
    [ "A"; "B" ]

let repeated names =
  List.length names <> List.length (List.sort_uniq String.compare names)

(* Random share-on catalogs of 2-4 views over keyed r1(W KEY, X) ⋈
   r2(X, Y KEY), identical definitions included, on the query-sending
   rungs, batched 1-3 and scheduled best, worst or at random. Stepping
   the engine, every answer event reaches each instance at most once
   (a gid's subscribers are distinct instances); no trace entry binds a
   view twice; every view ends at the true view. *)
let shared_catalog_gen =
  let open QCheck.Gen in
  let q = R.Attr.qualified in
  let projs =
    [|
      [ q "r1" "W" ]; [ q "r2" "Y" ]; [ q "r2" "X"; q "r2" "Y" ];
      [ q "r1" "W"; q "r1" "X" ]; [ q "r1" "W"; q "r2" "Y" ];
    |]
  in
  let view_gen =
    let* algo = oneofl [ "eca"; "eca-key"; "lca"; "rv" ] in
    let+ p = int_bound (Array.length projs - 1) in
    (* ECAK needs both keys projected *)
    (algo, if algo = "eca-key" then 4 else p)
  in
  let* views = list_size (2 -- 4) view_gen in
  let* batch = 1 -- 3 in
  let* policy = oneofl [ "best"; "worst"; "random" ] in
  let+ seed = int_bound 100_000 in
  let entries =
    List.mapi
      (fun i (algo, p) ->
        Core.Catalog.entry ~algo
          (vd
             (R.View.natural_join ~name:(Printf.sprintf "V%d" i)
                ~proj:projs.(p) [ r1_wkey; r2_ykey ])))
      views
  in
  let schedule =
    match policy with
    | "best" -> Core.Scheduler.Best_case
    | "worst" -> Core.Scheduler.Worst_case
    | _ -> Core.Scheduler.Random seed
  in
  (views, entries, batch, (policy, schedule), seed)

(* Key-respecting: an update the keyed relations refuse is skipped. *)
let keyed_stream_of_seed seed =
  let st = rng seed in
  let pick () = Random.State.int st 4 in
  let db0 =
    db_of [ (r1_wkey, [ [ 0; 1 ]; [ 1; 2 ] ]); (r2_ykey, [ [ 1; 0 ]; [ 2; 1 ] ]) ]
  in
  let _, rev =
    List.fold_left
      (fun (db, acc) _ ->
        let rel = if Random.State.bool st then "r1" else "r2" in
        let t = R.Tuple.ints [ pick (); pick () ] in
        let u =
          if Random.State.bool st || R.Bag.count (R.Db.contents db rel) t <= 0
          then R.Update.insert rel t
          else R.Update.delete rel t
        in
        match R.Db.apply db u with
        | db' -> (db', u :: acc)
        | exception R.Db.Db_error _ -> (db, acc))
      (db0, [])
      (List.init 8 Fun.id)
  in
  (db0, List.rev rev)

let shared_routes_subscribe_once_prop =
  QCheck.Test.make ~name:"shared routes subscribe each instance once"
    ~count:120
    (QCheck.make
       ~print:(fun (views, _, batch, (policy, _), seed) ->
         Printf.sprintf "views %s, batch %d, %s, seed %d"
           (String.concat ", "
              (List.map (fun (a, p) -> Printf.sprintf "%s/%d" a p) views))
           batch policy seed)
       shared_catalog_gen)
    (fun (_, entries, batch_size, (_, schedule), seed) ->
      let db, updates = keyed_stream_of_seed seed in
      let answered = ref [] in
      let creator cfg =
        let inst = Core.Catalog.creator entries cfg in
        let name = cfg.Core.Algorithm.Config.view.R.Viewdef.name in
        {
          inst with
          Core.Algorithm.on_answer =
            (fun ~id a ->
              answered := name :: !answered;
              inst.Core.Algorithm.on_answer ~id a);
        }
      in
      let st =
        Core.Engine.start ~schedule ~batch_size ~share_deltas:true ~creator
          ~sites:[ source db ] ~views:(Core.Catalog.views entries) ~updates ()
      in
      let rec drive ok =
        answered := [];
        match Core.Engine.step st with
        | None -> ok
        | Some _ -> drive (ok && not (repeated !answered))
      in
      let once = drive true in
      let r = Core.Engine.finish st in
      let final = R.Db.apply_all db updates in
      once
      && List.for_all
           (fun e ->
             not
               (repeated (List.map fst (Core.Trace.installs_of e))
               ||
               match e with
               | Core.Trace.Source_update { source_views; _ } ->
                 repeated (List.map fst source_views)
               | _ -> false))
           (Core.Trace.entries r.Core.Engine.trace)
      && List.for_all
           (fun (e : Core.Catalog.entry) ->
             let v = e.Core.Catalog.view in
             R.Bag.equal (R.Viewdef.eval final v)
               (List.assoc v.R.Viewdef.name r.Core.Engine.final_mvs))
           entries)

(* ------------------------------------------------------------------ *)
(* Subplan signatures                                                  *)
(* ------------------------------------------------------------------ *)

let signature_laws () =
  let v = view_w () in
  let q u = R.Query.view_delta v u in
  let a = q (ins "r1" [ 1; 2 ]) and a' = q (ins "r1" [ 1; 2 ]) in
  check_int "equal queries, equal signatures" (R.Query.signature a)
    (R.Query.signature a');
  check_int "query signature is order-insensitive"
    (R.Query.signature (R.Query.plus a (q (ins "r2" [ 2; 3 ]))))
    (R.Query.signature (R.Query.plus (q (ins "r2" [ 2; 3 ])) a));
  (* the signature keys the skeleton: a projection change keeps it, and
     [widen] maps the narrower query's columns into the union *)
  let wy = R.Query.view_delta (view_wy ()) (ins "r1" [ 1; 2 ]) in
  check_int "query signature ignores projection" (R.Query.signature a)
    (R.Query.signature wy);
  check_bool "... though the queries differ" false (R.Query.equal a wy);
  let widen = R.Query.widen (R.Query.widenings ()) in
  (match widen ~shipped:a wy with
  | None -> Alcotest.fail "widen: same skeleton, one projection per query"
  | Some (shipped, cols) ->
    Alcotest.(check (list string))
      "widened projection: shipped's columns, then the new ones"
      [ "r1.W"; "r2.Y" ]
      (List.map R.Attr.to_string (List.hd (R.Query.terms shipped)).R.Term.proj);
    Alcotest.(check (array int)) "column map" [| 0; 1 |] cols);
  (match widen ~shipped:wy a with
  | None -> Alcotest.fail "widen: a narrower query rides as is"
  | Some (shipped, cols) ->
    check_bool "nothing to add: shipped unchanged" true (shipped == wy);
    Alcotest.(check (array int)) "column map into a wider query" [| 0 |] cols);
  check_bool "different skeletons do not widen" true
    (widen ~shipped:a (q (ins "r1" [ 1; 3 ])) = None);
  (* a query whose terms keep different columns shares only when equal *)
  let mixed = R.Query.plus a wy in
  check_bool "mixed projections do not widen" true
    (widen ~shipped:mixed (R.Query.plus wy a) = None)

(* ------------------------------------------------------------------ *)
(* Satellite regressions                                               *)
(* ------------------------------------------------------------------ *)

(* LCA's pending_order is now a functional queue; Worst_case floods it —
   every update ships its pieces before any answer arrives, so dozens of
   entries are queued, snapshotted (per event) and filtered (per answer)
   in strict ship order. Completeness pins that order: compensations are
   folded per pending piece, and the per-update install sequence only
   matches the oracle if the bookkeeping survived the data-structure
   swap. *)
let lca_long_pending_queue () =
  let st = rng 11 in
  let updates =
    List.concat_map
      (fun _ ->
        [
          ins "r1" [ Random.State.int st 6; Random.State.int st 6 ];
          ins "r2" [ Random.State.int st 6; Random.State.int st 6 ];
        ])
      (List.init 14 Fun.id)
  in
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let result =
    run ~algorithm:"lca" ~schedule:Core.Scheduler.Worst_case
      ~views:[ view_w () ] ~db ~updates ()
  in
  let rep = report result "V" in
  check_bool "complete over a 28-update flooded queue" true
    rep.Core.Consistency.complete;
  check_bag "ends at the true view"
    (R.Eval.view (R.Db.apply_all db updates) (view_w ()))
    (final_mv result "V")

(* The Random policy now indexes an array instead of List.nth-ing the
   enabled list; the draw sequence is pinned by the golden traces, and
   this regression pins determinism: same seed, same trace. *)
let random_policy_still_deterministic () =
  let db, updates = stream_of_seed 23 in
  let go () =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 23)
      ~creator:(Core.Registry.creator_exn "eca") ~sites:[ source db ]
      ~views:[ vd (view_w ()) ] ~updates ()
  in
  let a = go () and b = go () in
  check_int "same step count" a.Core.Engine.metrics.Core.Metrics.steps
    b.Core.Engine.metrics.Core.Metrics.steps;
  check_bool "same event trace" true
    (Core.Trace.entries a.Core.Engine.trace
    = Core.Trace.entries b.Core.Engine.trace)

(* The planner's bound-set/multiplicity invariant is now checked, not
   assumed: a degenerate catalog (no indexes at all) must still plan
   literal-seeded joins — best_edge walks every edge, finds only scans
   worth taking, and no lookup can escape as an anonymous Not_found. *)
let planner_survives_degenerate_catalog () =
  let empty_cat = Storage.Catalog.make () in
  let db =
    db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]); (r3, [ [ 3; 4 ] ]) ]
  in
  let delta_term u =
    List.hd (R.Query.terms (R.Query.view_delta (view_w3 ()) u))
  in
  List.iter
    (fun u ->
      let plan = Storage.Planner.term empty_cat db (delta_term u) in
      check_bool "unindexed delta plan has positive io" true
        (plan.Storage.Plan.io > 0))
    [ ins "r1" [ 9; 9 ]; ins "r2" [ 9; 9 ]; ins "r3" [ 9; 9 ] ]

let suite =
  [
    Alcotest.test_case "auto_rung ladder" `Quick auto_rung_ladder;
    Alcotest.test_case "catalog validation" `Quick catalog_validation;
    Alcotest.test_case "catalog = N single-view runs (seed sweep)" `Quick
      catalog_equals_single_view_runs;
    Alcotest.test_case "sharing saves queries, changes nothing" `Quick
      sharing_saves_queries_and_changes_nothing;
    Alcotest.test_case "signature laws" `Quick signature_laws;
    Alcotest.test_case "LCA long pending queue stays complete" `Quick
      lca_long_pending_queue;
    Alcotest.test_case "Random policy deterministic after array swap" `Quick
      random_policy_still_deterministic;
    Alcotest.test_case "planner survives a degenerate catalog" `Quick
      planner_survives_degenerate_catalog;
  ]
  @ [
      Helpers.qcheck sharing_keeps_strong_consistency_prop;
      Alcotest.test_case "sharing subscribes an instance to a query once"
        `Quick sharing_subscribes_an_instance_once;
      Helpers.qcheck shared_routes_subscribe_once_prop;
    ]
