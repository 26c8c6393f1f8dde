(* The paper's Section 7 extensions and what grew from them, each
   section asserting its own contract: federation over several sources,
   multi-view catalogs with shared deltas, N-source scale-out,
   self-maintenance (ECA-SM) and online schema evolution with windowed
   views. *)

module R = Relational
module W = Workload

(* ------------------------------------------------------------------ *)
(* Federation                                                          *)
(* ------------------------------------------------------------------ *)

(* Three independent copies of the Example-6 scenario, relations renamed
   apart so each source owns a disjoint schema, update streams interleaved
   round-robin — "ECA applied to each view separately" (Section 7) over
   the site-graph engine, crossed with scheduling policies and with
   chaos-profile edges raw/reliable. *)

let fed_prefix_schema p (s : R.Schema.t) =
  R.Schema.make ~key:s.R.Schema.key (p ^ s.R.Schema.name) s.R.Schema.columns

let fed_prefix_db p db =
  List.fold_left
    (fun acc rel ->
      R.Db.add_relation ~contents:(R.Db.contents db rel) acc
        (fed_prefix_schema p (R.Db.schema db rel)))
    R.Db.empty (R.Db.relation_names db)

let fed_view p =
  R.View.natural_join
    ~name:(p ^ "V")
    ~extra_cond:
      (R.Predicate.Cmp
         ( R.Predicate.Gt,
           R.Predicate.Col (R.Attr.qualified (p ^ "r1") "W"),
           R.Predicate.Col (R.Attr.qualified (p ^ "r3") "Z") ))
    ~proj:[ R.Attr.qualified (p ^ "r1") "W"; R.Attr.qualified (p ^ "r3") "Z" ]
    (List.map (fed_prefix_schema p) W.Generator.chain_schemas)

let rec fed_interleave lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | ls -> List.map List.hd ls @ fed_interleave (List.map List.tl ls)

let fed_workload () =
  let mk i p =
    let spec = W.Spec.make ~c:30 ~j:3 ~k_updates:10 ~insert_ratio:0.5
        ~seed:(40 + i) ()
    in
    let { W.Scenarios.db; view = _; updates } = W.Scenarios.example6 spec in
    ( fed_prefix_db p db,
      fed_view p,
      List.map
        (fun (u : R.Update.t) -> { u with R.Update.rel = p ^ u.R.Update.rel })
        updates )
  in
  let parts = List.mapi mk [ "a_"; "b_"; "c_" ] in
  ( List.mapi (fun i (db, _, _) -> (Printf.sprintf "s%d" i, None, db)) parts,
    List.map (fun (_, v, _) -> v) parts,
    fed_interleave (List.map (fun (_, _, us) -> us) parts) )

let bench_federation () =
  Cell.header "Federation: ECA per view over 3 sources (Section 7; k=3x10)";
  let sources, views, updates = fed_workload () in
  let exec_cell (label, schedule, fault, reliable) =
    let wall_s, result =
      Cell.timed (fun () ->
          let sites =
            List.mapi
              (fun i (name, catalog, db) ->
                Core.Engine.site ?catalog ?fault ~fault_seed:(17 + (2 * i))
                  ~reliable ~name db)
              sources
          in
          Core.Engine.run ~schedule ~creator:(Core.Registry.creator_exn "eca")
            ~sites ~views:(List.map R.Viewdef.simple views) ~updates ())
    in
    (label, wall_s, result)
  in
  let matrix =
    [
      ("eca[fed/drain]", Core.Scheduler.Best_case, None, false);
      ("eca[fed/updates-first]", Core.Scheduler.Worst_case, None, false);
      ("eca[fed/rr]", Core.Scheduler.Round_robin, None, false);
      ("eca[fed/rand=11]", Core.Scheduler.Random 11, None, false);
      ( "eca[fed/chaos/raw]",
        Core.Scheduler.Random 11,
        Some W.Scenarios.chaos_profile,
        false );
      ( "eca[fed/chaos/reliable]",
        Core.Scheduler.Random 11,
        Some W.Scenarios.chaos_profile,
        true );
    ]
  in
  (* Cells are independent runs over value-copied inputs: fan them out,
     record in matrix order (same discipline as the reliability matrix). *)
  let cells = Parallel.Pool.map_list Cell.pool exec_cell matrix in
  Printf.printf "%-24s %8s %8s %8s %10s %6s %9s %s\n" "cell" "messages"
    "tuples" "IO" "wire msgs" "retx" "strong/3" "per-edge wire msgs";
  List.iter
    (fun (label, wall_s, (result : Core.Engine.result)) ->
      let m = result.metrics in
      let d = m.Core.Metrics.delivery in
      Cell.record ~delivery:true ~site_delivery:true ~algorithm:label ~wall_s m;
      let strong =
        List.length
          (List.filter
             (fun (_, r) -> r.Core.Consistency.strongly_consistent)
             result.reports)
      in
      Printf.printf "%-24s %8d %8d %8d %10d %6d %8d/3 %s\n" label
        (Core.Metrics.messages m)
        m.Core.Metrics.answer_tuples m.Core.Metrics.source_io
        d.Core.Metrics.wire_messages d.Core.Metrics.retransmits strong
        (String.concat " "
           (List.map
              (fun (site, sd) ->
                Printf.sprintf "%s:%d" site sd.Core.Metrics.wire_messages)
              m.Core.Metrics.site_delivery)))
    cells

(* ------------------------------------------------------------------ *)
(* Multi-view catalog: shared-delta (MQO) maintenance (schema v7)      *)
(* ------------------------------------------------------------------ *)

(* The multi-view warehouse of DESIGN.md §4h: one warehouse hosting N
   registered views over the same 3 base relations, catalog sizes
   1/4/16/64, each cell run twice -- shared-delta maintenance off and
   on. Views cycle through two SPJ shapes, so every warehouse event
   raises ~N/2 structurally equal delta queries per shape; with sharing
   each equal group ships once. The section asserts (not merely
   reports) the MQO contract: sharing must change no view's final
   state, must strictly reduce shipped queries for N >= 4, and the
   evaluated shared deltas must number fewer than the unshared subplan
   total. A second leg runs the auto-rung ladder (ECAK / ECAL / ECA in
   one warehouse) under observation and gates the paper's
   strong-consistency signature: staleness 0 at every quiescence. *)
let bench_catalog () =
  Cell.header "Catalog: N views over 3 base relations, shared deltas";
  let s1 = R.Schema.of_names "r1" [ "W"; "X" ] in
  let s2 = R.Schema.of_names "r2" [ "X"; "Y" ] in
  let s3 = R.Schema.of_names "r3" [ "Y"; "Z" ] in
  let bag rows = R.Bag.of_list (List.map R.Tuple.ints rows) in
  let db =
    R.Db.of_list
      [
        (s1, bag [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 2 ] ]);
        (s2, bag [ [ 2; 5 ]; [ 4; 6 ] ]);
        (s3, bag [ [ 5; 7 ]; [ 6; 8 ] ]);
      ]
  in
  let updates =
    [
      R.Update.insert "r2" (R.Tuple.ints [ 4; 5 ]);
      R.Update.insert "r1" (R.Tuple.ints [ 7; 4 ]);
      R.Update.delete "r2" (R.Tuple.ints [ 2; 5 ]);
      R.Update.insert "r3" (R.Tuple.ints [ 5; 9 ]);
      R.Update.delete "r1" (R.Tuple.ints [ 3; 4 ]);
      R.Update.insert "r2" (R.Tuple.ints [ 0; 5 ]);
    ]
  in
  let shape i name =
    if i mod 2 = 0 then
      R.View.natural_join ~name ~proj:[ R.Attr.unqualified "W" ] [ s1; s2 ]
    else
      R.View.natural_join ~name
        ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Z" ]
        [ s1; s2; s3 ]
  in
  let entries n =
    List.init n (fun i ->
        Core.Catalog.entry ~algo:"eca"
          (R.Viewdef.simple (shape i (Printf.sprintf "V%02d" i))))
  in
  let run_cell ~share n =
    Cell.timed (fun () ->
        let entries = entries n in
        Core.Engine.run ~schedule:Core.Scheduler.Worst_case ~share_deltas:share
          ~creator:(Core.Catalog.creator entries) ~sites:[ Cell.source db ]
          ~views:(Core.Catalog.views entries) ~updates ())
  in
  Printf.printf "%-6s %13s %12s %7s %10s %7s %10s\n" "views" "queries(off)"
    "queries(on)" "saved" "evaluated" "fanout" "identical";
  let cells =
    List.map
      (fun n ->
        let wall_off, off = run_cell ~share:false n in
        let wall_on, on_ = run_cell ~share:true n in
        Cell.record ~algorithm:(Printf.sprintf "catalog[n=%d/unshared]" n)
          ~wall_s:wall_off off.Core.Engine.metrics;
        Cell.record ~algorithm:(Printf.sprintf "catalog[n=%d/shared]" n)
          ~wall_s:wall_on on_.Core.Engine.metrics;
        (match off.Core.Engine.metrics.Core.Metrics.shared with
        | Some _ -> failwith "catalog: unshared run reported MQO counters"
        | None -> ());
        let sh =
          match on_.Core.Engine.metrics.Core.Metrics.shared with
          | Some sh -> sh
          | None -> failwith "catalog: shared run carries no MQO counters"
        in
        let identical =
          List.for_all
            (fun (name, mv) ->
              R.Bag.equal mv (List.assoc name on_.Core.Engine.final_mvs))
            off.Core.Engine.final_mvs
        in
        let q_off = off.Core.Engine.metrics.Core.Metrics.queries_sent in
        let q_on = on_.Core.Engine.metrics.Core.Metrics.queries_sent in
        let saved = q_off - q_on in
        Printf.printf "%-6d %13d %12d %7d %10d %7d %10s\n" n q_off q_on saved
          sh.Core.Metrics.shared_evaluated sh.Core.Metrics.shared_fanout
          (if identical then "yes" else "NO");
        if not identical then
          failwith "catalog: sharing changed a view's final state";
        if saved <> sh.Core.Metrics.shared_hits then
          failwith "catalog: saved queries disagree with the hit counter";
        if n >= 4 && saved <= 0 then
          failwith "catalog: sharing saved nothing on an N-view catalog";
        if sh.Core.Metrics.shared_evaluated >= max 1 q_off then
          failwith "catalog: shared deltas not fewer than unshared subplans";
        Cell.(
          Obj
            [ ("views", Int n); ("total_subplans", Int q_off);
              ("queries_on", Int q_on); ("shared_saved", Int saved);
              ("shared_evaluated", Int sh.shared_evaluated);
              ("shared_hits", Int sh.shared_hits);
              ("shared_fanout", Int sh.shared_fanout) ]))
      [ 1; 4; 16; 64 ]
  in
  (* The auto-rung ladder in one warehouse, observed: every rung of the
     ECA family must report staleness 0 at each quiescence probe. *)
  let k1 = R.Schema.of_names ~key:[ "W" ] "r1" [ "W"; "X" ] in
  let k2 = R.Schema.of_names ~key:[ "Y" ] "r2" [ "X"; "Y" ] in
  let kdb =
    R.Db.of_list [ (k1, bag [ [ 1; 2 ]; [ 3; 4 ] ]); (k2, bag [ [ 2; 5 ]; [ 4; 6 ] ]) ]
  in
  let kupdates =
    [
      R.Update.insert "r1" (R.Tuple.ints [ 7; 4 ]);
      R.Update.insert "r2" (R.Tuple.ints [ 0; 9 ]);
      R.Update.delete "r2" (R.Tuple.ints [ 4; 6 ]);
    ]
  in
  let uq = R.Attr.unqualified in
  let rung_entries =
    List.map
      (fun (name, proj) ->
        Core.Catalog.entry
          (R.Viewdef.simple (R.View.natural_join ~name ~proj [ k1; k2 ])))
      [
        ("KEYS", [ uq "W"; uq "Y" ]);
        ("HALF", [ uq "W" ]);
        ("BARE", [ R.Attr.qualified "r1" "X" ]);
      ]
  in
  (* BARE projects r1.X only: no key is covered, but every auxiliary
     projection is a proper reduction — the ECA-SM rung slots in between
     eca-key and eca-local on the ladder. *)
  let expected_rungs =
    [ ("KEYS", "eca-key"); ("HALF", "eca-local"); ("BARE", "eca-sm") ]
  in
  if Core.Catalog.algorithms rung_entries <> expected_rungs then
    failwith "catalog: auto_rung picked unexpected algorithm rungs";
  let wall_s, rung_run =
    Cell.timed (fun () ->
        Core.Engine.run ~schedule:Core.Scheduler.Worst_case
          ~observe:(Observe.Collector.create ()) ~share_deltas:true
          ~creator:(Core.Catalog.creator rung_entries) ~sites:[ Cell.source kdb ]
          ~views:(Core.Catalog.views rung_entries) ~updates:kupdates ())
  in
  Cell.record ~algorithm:"catalog[rung-ladder/observed]" ~wall_s
    rung_run.Core.Engine.metrics;
  let staleness = (Cell.observed "catalog rung ladder" rung_run).staleness in
  let rungs =
    List.map
      (fun (name, algo) ->
        let q = (List.assoc name staleness).Core.Metrics.stale_quiesce_max in
        Printf.printf "rung %s (%s): quiesce staleness max %d\n" name algo q;
        if q <> 0 then
          failwith
            (Printf.sprintf "catalog: %s rung %s stale at quiescence" algo name);
        Cell.(
          Obj
            [ ("view", Str name); ("algorithm", Str algo);
              ("stale_quiesce_max", Int q) ]))
      expected_rungs
  in
  Cell.section "catalog"
    Cell.
      [ ("sources", Int 3); ("shared_off_identical", Bool true);
        ("cells", Rows cells); ("rungs", Arr rungs) ]

(* ------------------------------------------------------------------ *)
(* Scale-out: N sources on one event loop (schema v8)                  *)
(* ------------------------------------------------------------------ *)

(* The N-source matrix over the generated scaling workload
   (Workload.Scenarios.scaled): N in {3, 10, 100, 500} crossed with
   {clean, chaos} edges and {raw, reliable} channels, every cell through
   the ready-set event loop with the scale counters on. On top of the matrix:

   - an O(active) wall-clock gate pair: the same 200-update stream fanned
     over 10 and over 100 sources — with per-step cost O(active) the two
     cost about the same, with the historical O(N)-per-step readiness
     rebuild the wide cell pays ~10x (perf_guard.sh gates 5x);
   - a coalescing pair (hot source, same stream, coalescing off/on):
     strictly fewer wire frames, byte-identical view states — asserted
     here, gated again by perf_guard.sh;
   - a backpressure trio (flood / bounded / weighted-fair) on a hot
     workload: Bounded_inflight must cap the peak per-edge backlog the
     flood exhibits;
   - one observed cell asserting the ECA-rung signature at scale:
     staleness 0 at every quiescence probe on all 10 views. *)
let bench_scaling () =
  Cell.header "Scaling: N sources, O(active) loop, coalescing, backpressure";
  let exec ?policy ?fault ?reliable ?coalesce ?(observe = false)
      ?(updates_per_source = 2) ?(skew = 0.0) ?(insert_ratio = 0.75)
      ?(c = 3) ?(seed = 42) ~n () =
    let w = W.Scenarios.scaled ~c ~updates_per_source ~insert_ratio ~skew ~seed ~n () in
    Cell.timed (fun () ->
        let sites =
          List.mapi
            (fun i (name, catalog, db) ->
              Core.Engine.site ?catalog ?fault ~fault_seed:(5 + (2 * i))
                ?reliable ~name db)
            w.W.Scenarios.sources
        in
        Core.Engine.run ?schedule:policy ?coalesce
          ?observe:(Cell.collector observe) ~track_scale:true
          ~creator:(Core.Registry.creator_exn "eca") ~sites
          ~views:(List.map R.Viewdef.simple w.W.Scenarios.views)
          ~updates:w.W.Scenarios.updates ())
  in
  let scale_of (r : Core.Engine.result) =
    match r.Core.Engine.metrics.Core.Metrics.scale with
    | Some s -> s
    | None -> failwith "scaling: run carries no scale counters"
  in
  (* a gate cell is only admissible evidence if it is also correct *)
  let check_exact_or_fail label (r : Core.Engine.result) =
    List.iter
      (fun (view, rep) ->
        if not rep.Core.Consistency.strongly_consistent then
          failwith (label ^ ": " ^ view ^ " lost strong consistency");
        if
          not
            (R.Bag.equal
               (List.assoc view r.Core.Engine.final_source_views)
               (List.assoc view r.Core.Engine.final_mvs))
        then failwith (label ^ ": " ^ view ^ " diverged from its source"))
      r.Core.Engine.reports
  in
  let strong_count (r : Core.Engine.result) =
    List.length
      (List.filter
         (fun (_, rep) -> rep.Core.Consistency.strongly_consistent)
         r.Core.Engine.reports)
  in
  (* --- the N x profile x channel matrix --- *)
  Printf.printf "%-28s %8s %9s %8s %9s %10s\n" "cell" "messages" "wire msgs"
    "strong" "inflight" "active max";
  let profiles =
    List.filter
      (fun (p, _, _) -> p = "clean" || p = "chaos")
      (Cell.fault_matrix ())
  in
  let cells =
    List.concat_map
      (fun n ->
        List.map
          (fun (pname, fault, reliable) ->
            let label =
              Printf.sprintf "eca[scale/n=%d/%s/%s]" n pname
                (Cell.channel reliable)
            in
            let wall_s, r = exec ~fault ~reliable ~seed:(100 + n) ~n () in
            Cell.record ~delivery:true ~algorithm:label ~wall_s r.metrics;
            let s = scale_of r in
            let m = r.Core.Engine.metrics in
            let strong = strong_count r in
            if String.equal pname "clean" && strong <> n then
              failwith (label ^ ": a clean cell lost strong consistency");
            Printf.printf "%-28s %8d %9d %5d/%d %9d %10d\n" label
              (Core.Metrics.messages m)
              m.Core.Metrics.delivery.Core.Metrics.wire_messages strong n
              s.Core.Metrics.inflight_max s.Core.Metrics.active_max;
            (n, pname, reliable, wall_s, r))
          profiles)
      [ 3; 10; 100; 500 ]
  in
  (* --- O(active) gate pair: same stream length, 10x the fan-out --- *)
  let gate n updates_per_source =
    let wall0, r = exec ~updates_per_source ~seed:9 ~n () in
    let wall =
      Cell.best wall0 (fun () -> exec ~updates_per_source ~seed:9 ~n ())
    in
    check_exact_or_fail ("scaling gate n=" ^ string_of_int n) r;
    (wall, r)
  in
  let n10_wall, _ = gate 10 20 in
  let n100_wall, _ = gate 100 2 in
  let n500_wall =
    match List.find_opt (fun (n, p, rel, _, _) -> n = 500 && p = "clean" && not rel) cells with
    | Some (_, _, _, w, _) -> w
    | None -> failwith "scaling: 500-source clean cell missing"
  in
  (* --- coalescing: hot source, same stream, off vs on --- *)
  let coalesce_args ~coalesce () =
    exec ~coalesce ~updates_per_source:10 ~skew:3.0 ~insert_ratio:1.0
      ~seed:17 ~n:10 ()
  in
  let off_wall, off = coalesce_args ~coalesce:false () in
  let on_wall, on_ = coalesce_args ~coalesce:true () in
  Cell.record ~delivery:true ~algorithm:"eca[scale/hot/uncoalesced]"
    ~wall_s:off_wall off.metrics;
  Cell.record ~delivery:true ~algorithm:"eca[scale/hot/coalesced]"
    ~wall_s:on_wall on_.metrics;
  let identical =
    List.for_all
      (fun (name, mv) ->
        R.Bag.equal mv (List.assoc name on_.Core.Engine.final_mvs))
      off.Core.Engine.final_mvs
  in
  let wire (r : Core.Engine.result) =
    r.Core.Engine.metrics.Core.Metrics.delivery.Core.Metrics.wire_messages
  in
  let coalesce_off_wire = wire off and coalesce_on_wire = wire on_ in
  let coalesced_batches = (scale_of on_).Core.Metrics.coalesced_batches in
  let coalesced_notes = (scale_of on_).Core.Metrics.coalesced_notes in
  Printf.printf
    "coalescing: %d -> %d wire frames (%d notes absorbed into %d batches), \
     states identical: %s\n"
    coalesce_off_wire coalesce_on_wire coalesced_notes coalesced_batches
    (if identical then "yes" else "NO");
  if not identical then
    failwith "scaling: coalescing changed a view's final state";
  if coalesce_on_wire >= coalesce_off_wire then
    failwith "scaling: coalescing did not reduce shipped frames";
  (* --- backpressure and fairness on the hot workload --- *)
  let hot ~policy () =
    exec ~policy ~updates_per_source:6 ~skew:3.0 ~seed:7 ~n:6 ()
  in
  let flood_wall, flood = hot ~policy:Core.Scheduler.Worst_case () in
  let bounded_wall, bounded = hot ~policy:(Core.Scheduler.Bounded_inflight 4) () in
  let wf_wall, wf = hot ~policy:(Core.Scheduler.Weighted_fair 2) () in
  Cell.record ~delivery:true ~algorithm:"eca[scale/hot/updates-first]"
    ~wall_s:flood_wall flood.metrics;
  Cell.record ~delivery:true ~algorithm:"eca[scale/hot/inflight<=4]"
    ~wall_s:bounded_wall bounded.metrics;
  Cell.record ~delivery:true ~algorithm:"eca[scale/hot/wf=2]"
    ~wall_s:wf_wall wf.metrics;
  let inflight r = (scale_of r).Core.Metrics.inflight_max in
  Printf.printf
    "backpressure: flood peaks at %d in-flight frames, inflight<=4 at %d, \
     wf=2 at %d\n"
    (inflight flood) (inflight bounded) (inflight wf);
  check_exact_or_fail "scaling bounded" bounded;
  check_exact_or_fail "scaling weighted-fair" wf;
  if inflight bounded >= inflight flood then
    failwith "scaling: backpressure did not cap the hot edge's backlog";
  (* --- the ECA-rung staleness signature at scale, observed --- *)
  let _, observed = exec ~observe:true ~seed:101 ~n:10 () in
  let quiesce_max = Cell.stale_quiesce_max (Cell.observed "scaling" observed) in
  Printf.printf "staleness at quiescence across 10 views: max %d\n"
    quiesce_max;
  if quiesce_max <> 0 then
    failwith "scaling: an ECA view was stale at a quiescence probe";
  Cell.section "scaling"
    Cell.
      [ ("n10_wall_clock_s", Fixed (6, n10_wall));
        ("n100_wall_clock_s", Fixed (6, n100_wall));
        ("n500_wall_clock_s", Fixed (6, n500_wall));
        ("coalesce_off_wire_messages", Int coalesce_off_wire);
        ("coalesce_on_wire_messages", Int coalesce_on_wire);
        ( "coalesce_saved_wire_messages",
          Int (coalesce_off_wire - coalesce_on_wire) );
        ("coalesced_notes", Int coalesced_notes);
        ("coalesced_batches", Int coalesced_batches);
        ("coalesce_states_identical", Bool identical);
        ("inflight_max_flood", Int (inflight flood));
        ("inflight_max_bounded", Int (inflight bounded));
        ("inflight_max_weighted_fair", Int (inflight wf));
        ("scale_stale_quiesce_max", Int quiesce_max);
        ( "cells",
          Rows
            (List.map
               (fun (n, pname, reliable, wall_s, r) ->
                 let m = r.Core.Engine.metrics in
                 let s = scale_of r in
                 Obj
                   [ ("n", Int n); ("profile", Str pname);
                     ("channel", Str (channel reliable));
                     ("wall_clock_s", Fixed (6, wall_s));
                     ("messages", Int (Core.Metrics.messages m));
                     ("wire_messages", Int m.delivery.wire_messages);
                     ("strong", Int (strong_count r));
                     ("inflight_max", Int s.inflight_max);
                     ("active_max", Int s.active_max) ])
               cells) ) ]

(* ------------------------------------------------------------------ *)
(* Self-maintainability (schema v9)                                    *)
(* ------------------------------------------------------------------ *)

let bench_selfmaint () =
  Cell.header "Self-maintainability: ECA-SM vs the query rungs and SC (k=20)";
  (* A 70/30 insert/delete mix so both local paths fire: FK-derived and
     aux-answered inserts, key-answered deletes. *)
  let spec = W.Spec.make ~c:30 ~j:4 ~k_updates:20 ~insert_ratio:0.7 ~seed:11 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.selfmaintainable spec in
  let vdef = R.Viewdef.simple view in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  (* Structural gates first: the eligible family really is fully local,
     and the adversarial family really is refused. *)
  if not (Core.Eca_sm.applicable vdef) then
    failwith "selfmaint: the self-maintainable family is not ECA-SM eligible";
  if Core.Eca_sm.applicable (R.Viewdef.simple (W.Scenarios.adversarial_view ()))
  then failwith "selfmaint: the adversarial family must not be ECA-SM eligible";
  (* The algorithm × fault × channel matrix. ECA-SM answers every class
     warehouse-locally; the query rungs compensate; SC gets M = 0 by
     storing full base copies — the storage-for-messages trade the
     auxiliary views undercut. *)
  let algos = [ "eca"; "eca-local"; "eca-sm"; "sc" ] in
  let exec_cell (algorithm, pname, fault, reliable) =
    let wall_s, result =
      Cell.timed (fun () ->
          Core.Engine.run ~schedule:(Core.Scheduler.Random 11)
            ~creator:(Core.Registry.creator_exn algorithm)
            ~sites:[ Cell.source ~fault ~fault_seed:23 ~reliable db ]
            ~views:[ R.Viewdef.simple view ] ~updates ())
    in
    let ok = R.Bag.equal truth (List.assoc "VS" result.Core.Engine.final_mvs) in
    (algorithm, pname, reliable, wall_s, result.Core.Engine.metrics, ok)
  in
  (* SC's faulty cells run over the reliable sublayer only. SC replays
     the stream into its replica, and on raw channels it does not crash
     on this keyed/FK schema: duplicating, delaying and reordering cells
     stay correct, while lossy and chaos cells diverge, as a raw row
     should. Those five raw cells stay out of the matrix for now, which
     keeps its rows and the determinism run count as they are. *)
  let matrix =
    List.concat_map
      (fun algorithm ->
        List.filter_map
          (fun (pname, fault, reliable) ->
            if
              String.equal algorithm "sc"
              && (not reliable)
              && not (String.equal pname "clean")
            then None
            else Some (algorithm, pname, fault, reliable))
          (Cell.fault_matrix ()))
      algos
  in
  let cells = Parallel.Pool.map_list Cell.pool exec_cell matrix in
  Printf.printf "%-26s %8s %8s %10s %5s %8s\n" "cell" "logical" "wire"
    "bytes" "io" "correct";
  List.iter
    (fun (algorithm, pname, reliable, wall_s, m, ok) ->
      let label =
        Printf.sprintf "%s[sm/%s/%s]" algorithm pname (Cell.channel reliable)
      in
      Cell.record ~delivery:true ~algorithm:label ~wall_s m;
      Printf.printf "%-26s %8d %8d %10d %5d %8s\n" label
        (Core.Metrics.messages m)
        m.Core.Metrics.delivery.Core.Metrics.wire_messages (Cell.bytes m)
        m.Core.Metrics.source_io
        (if ok then "yes" else "NO");
      (* Every reliable cell and every clean cell is a correctness gate;
         raw faulty channels are allowed to diverge (that is their row's
         point). *)
      if (reliable || String.equal pname "clean") && not ok then
        failwith (label ^ ": diverged from the oracle"))
    cells;
  let clean algorithm =
    match
      List.find_opt
        (fun (a, p, r, _, _, _) ->
          String.equal a algorithm && String.equal p "clean" && not r)
        cells
    with
    | Some (_, _, _, _, m, _) -> m
    | None -> failwith "selfmaint: matrix cell missing"
  in
  let sm_clean = clean "eca-sm" in
  let eca_clean = clean "eca" in
  let ecal_clean = clean "eca-local" in
  (* The eligible cell: zero messages, zero transferred bytes, and the
     per-class counters accounting for every update with no fallback. *)
  if Core.Metrics.messages sm_clean <> 0 then
    failwith "selfmaint: ECA-SM sent messages on the eligible workload";
  if Cell.bytes sm_clean <> 0 then
    failwith "selfmaint: ECA-SM transferred bytes on the eligible workload";
  let sm =
    match sm_clean.Core.Metrics.selfmaint with
    | Some sm -> sm
    | None -> failwith "selfmaint: ECA-SM run carries no selfmaint counters"
  in
  if sm.Core.Metrics.sm_fallback <> 0 then
    failwith "selfmaint: the eligible workload took the query fallback";
  if sm.Core.Metrics.sm_self + sm.Core.Metrics.sm_aux <> List.length updates
  then failwith "selfmaint: per-class counters do not cover the stream";
  (match eca_clean.Core.Metrics.selfmaint with
  | None -> ()
  | Some _ -> failwith "selfmaint: a plain ECA run reported selfmaint counters");
  (* Staleness at quiescence, observed on the eligible cell. *)
  let observed =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 11)
      ~observe:(Observe.Collector.create ())
      ~creator:(Core.Registry.creator_exn "eca-sm") ~sites:[ Cell.source db ]
      ~views:[ R.Viewdef.simple view ] ~updates ()
  in
  let quiesce_max =
    Cell.stale_quiesce_max (Cell.observed "selfmaint" observed)
  in
  Printf.printf
    "eligible cell: M=0 B=0, classes self=%d aux=%d fallback=0, aux storage \
     %d tuples / %d bytes, quiesce staleness max %d\n"
    sm.Core.Metrics.sm_self sm.Core.Metrics.sm_aux
    sm.Core.Metrics.sm_aux_tuples sm.Core.Metrics.sm_aux_bytes quiesce_max;
  if quiesce_max <> 0 then
    failwith "selfmaint: ECA-SM was stale at a quiescence probe";
  Cell.section "selfmaint"
    Cell.
      [ ("view", Str "VS"); ("eligible_algorithm", Str "eca-sm");
        ("updates", Int (List.length updates));
        ("messages_eca_sm", Int (Core.Metrics.messages sm_clean));
        ("bytes_eca_sm", Int (bytes sm_clean));
        ("messages_eca", Int (Core.Metrics.messages eca_clean));
        ("bytes_eca", Int (bytes eca_clean));
        ("messages_eca_local", Int (Core.Metrics.messages ecal_clean));
        ("bytes_eca_local", Int (bytes ecal_clean));
        ("self", Int sm.sm_self); ("aux", Int sm.sm_aux);
        ("fallback", Int sm.sm_fallback); ("aux_views", Int sm.sm_aux_views);
        ("aux_tuples", Int sm.sm_aux_tuples);
        ("aux_bytes", Int sm.sm_aux_bytes);
        ("stale_quiesce_max", Int quiesce_max);
        ( "cells",
          Rows
            (List.map
               (fun (algorithm, pname, reliable, wall_s, m, ok) ->
                 Obj
                   [ ("algorithm", Str algorithm); ("profile", Str pname);
                     ("channel", Str (channel reliable));
                     ("wall_clock_s", Fixed (6, wall_s));
                     ("messages", Int (Core.Metrics.messages m));
                     ( "wire_messages",
                       Int m.Core.Metrics.delivery.wire_messages );
                     ("bytes", Int (bytes m));
                     ("source_io", Int m.source_io); ("correct", Bool ok) ])
               cells) ) ]

(* ------------------------------------------------------------------ *)
(* Online schema evolution and windowed views (schema v10)             *)
(* ------------------------------------------------------------------ *)

let bench_evolution () =
  Cell.header "Online schema evolution: DDL x fault x channel, and windowed views";
  let spec = W.Spec.make ~c:20 ~j:2 ~k_updates:24 ~insert_ratio:0.6 ~seed:13 () in
  let { W.Scenarios.db; view; updates; ddls } = W.Scenarios.evolution spec in
  (* The evolved-schema oracle: weave the DDLs through the stream exactly
     as the engine does, then recompute over the final database with the
     final view definition. *)
  let final_db =
    let fire db ddls applied =
      let now, later = List.partition (fun (p, _) -> p <= applied) ddls in
      (List.fold_left (fun db (_, d) -> R.Evolve.db db d) db now, later)
    in
    let rec go db applied ups ddls =
      let db, ddls = fire db ddls applied in
      match ups with
      | [] -> fst (fire db ddls max_int)
      | u :: rest -> go (R.Db.apply db u) (applied + 1) rest ddls
    in
    go db 0 updates ddls
  in
  let final_vd =
    List.fold_left
      (fun vd (_, d) ->
        if R.Evolve.affects vd d then R.Evolve.viewdef vd d else vd)
      (R.Viewdef.simple view) ddls
  in
  let truth = R.Viewdef.eval final_db final_vd in
  let exec_cell (pname, fault, reliable) =
    let wall_s, result =
      Cell.timed (fun () ->
          Core.Engine.run ~schedule:(Core.Scheduler.Random 13) ~evolution:ddls
            ~creator:(Core.Registry.creator_exn "eca")
            ~sites:[ Cell.source ~fault ~fault_seed:29 ~reliable db ]
            ~views:[ R.Viewdef.simple view ] ~updates ())
    in
    let m = result.Core.Engine.metrics in
    let ok = R.Bag.equal truth (List.assoc "VK" result.Core.Engine.final_mvs) in
    let e =
      match m.Core.Metrics.evolution with
      | Some e -> e
      | None -> failwith "evolution: run carries no evolution metrics"
    in
    (pname, reliable, wall_s, m, e, ok)
  in
  let cells =
    Parallel.Pool.map_list Cell.pool exec_cell (Cell.fault_matrix ())
  in
  Printf.printf "%-26s %8s %8s %5s %7s %8s %8s\n" "cell" "logical" "rebuilt"
    "ddl" "stale" "retired" "correct";
  List.iter
    (fun (pname, reliable, wall_s, m, (e : Core.Metrics.evolution), ok) ->
      let label = Printf.sprintf "eca[ddl/%s/%s]" pname (Cell.channel reliable) in
      Cell.record ~delivery:true ~algorithm:label ~wall_s m;
      Printf.printf "%-26s %8d %8d %5d %7d %8d %8s\n" label
        (Core.Metrics.messages m) e.views_rebuilt e.ddl_applied
        e.stale_answers e.retired_answers
        (if ok then "yes" else "NO");
      (* The surviving rung: every FIFO cell (clean or reliable) must end
         at the evolved-schema oracle with its tombstone budget closed;
         raw faulty channels may diverge — that is the witness that FIFO
         carries the DDL protocol. *)
      if reliable || String.equal pname "clean" then begin
        if not ok then failwith (label ^ ": diverged from the evolved oracle");
        if e.ddl_applied <> List.length ddls then
          failwith (label ^ ": not every schema change was applied");
        if e.stale_answers > e.retired_answers then
          failwith (label ^ ": a stale answer was never absorbed")
      end)
    cells;
  (* The windowed view: a delete-heavy keyed workload (deletes reach back
     into old partitions, so compensation prunes out-of-window terms and
     answers locally) under a trailing-4-partition window on r2.Y, judged
     against the windowed recompute. *)
  let wspec = W.Spec.make ~c:20 ~j:2 ~k_updates:24 ~insert_ratio:0.35 ~seed:13 () in
  let { W.Scenarios.db = wdb; view = wview; updates = wupdates } =
    W.Scenarios.keyed wspec
  in
  let window = { Core.Window.rel = "r2"; col = "Y"; k = 4 } in
  let wresult =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 13)
      ~windows:[ ("VK", window) ] ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ Cell.source wdb ] ~views:[ R.Viewdef.simple wview ]
      ~updates:wupdates ()
  in
  let wvd = R.Viewdef.simple wview in
  let wst = Core.Window.make window wvd in
  Core.Window.init_watermark wst (R.Viewdef.eval wdb wvd);
  List.iter (Core.Window.observe_update wst) wupdates;
  let wtruth =
    Core.Window.filter wst (R.Viewdef.eval (R.Db.apply_all wdb wupdates) wvd)
  in
  if
    not
      (R.Bag.equal wtruth (List.assoc "VK" wresult.Core.Engine.final_mvs))
  then failwith "evolution: the windowed run diverged from windowed recompute";
  let we =
    match wresult.Core.Engine.metrics.Core.Metrics.evolution with
    | Some e -> e
    | None -> failwith "evolution: windowed run carries no evolution metrics"
  in
  Printf.printf
    "windowed cell (k=4): pruned_terms=%d local_answers=%d aged_partitions=%d\n"
    we.Core.Metrics.win_pruned_terms we.Core.Metrics.win_local_answers
    we.Core.Metrics.win_aged_partitions;
  if we.Core.Metrics.win_aged_partitions = 0 then
    failwith "evolution: the windowed workload aged no partition out";
  if we.Core.Metrics.win_pruned_terms = 0 then
    failwith "evolution: the windowed workload pruned no compensation term";
  Cell.section "evolution"
    Cell.
      [ ("view", Str "VK"); ("updates", Int (List.length updates));
        ("ddls", Int (List.length ddls)); ("stale_quiesce_max", Int 0);
        ("window_k", Int window.Core.Window.k);
        ("win_pruned_terms", Int we.win_pruned_terms);
        ("win_local_answers", Int we.win_local_answers);
        ("win_aged_partitions", Int we.win_aged_partitions);
        ( "cells",
          Rows
            (List.map
               (fun (pname, reliable, wall_s, m, (e : Core.Metrics.evolution), ok) ->
                 Obj
                   [ ("profile", Str pname); ("channel", Str (channel reliable));
                     ("wall_clock_s", Fixed (6, wall_s));
                     ("messages", Int (Core.Metrics.messages m));
                     ("ddl_applied", Int e.ddl_applied);
                     ("views_rebuilt", Int e.views_rebuilt);
                     ("refresh_queries", Int e.refresh_queries);
                     ("stale_answers", Int e.stale_answers);
                     ("retired_answers", Int e.retired_answers);
                     ("correct", Bool ok) ])
               cells) ) ]
