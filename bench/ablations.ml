(* Ablations of the paper's design choices: compensation cost, the
   ECAK/ECAL/LCA/SC comparisons, the Scenario 2 accounting, batching and
   maintenance timing, literal-only terms, scan sharing, skew, reliable
   delivery over faulty channels, the observability layer and the
   Section 7 union/difference views. *)

module R = Relational
module CM = Costmodel
module W = Workload

let ablation_compensation () =
  Cell.header "Ablation: compensation cost (ECA worst - ECA best, measured)";
  Printf.printf "%4s %10s %10s %12s %12s\n" "k" "best B" "worst B" "overhead"
    "analytic";
  List.iter
    (fun k ->
      let _, _, eca_b, eca_w = Paper.corners ~c:100 ~k () in
      let analytic =
        CM.Transfer.(eca_worst_k Paper.params ~k -. eca_best_k Paper.params ~k)
      in
      Printf.printf "%4d %10d %10d %12d %12.0f\n" k (Cell.bytes eca_b)
        (Cell.bytes eca_w)
        (Cell.bytes eca_w - Cell.bytes eca_b)
        analytic)
    Paper.compensation_ks

let run_keyed ~algorithm ~schedule ?(insert_ratio = 0.5) k =
  let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:k ~insert_ratio ~seed:7 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.keyed spec in
  let wall_s, result =
    Cell.timed (fun () ->
        Core.Engine.run ~schedule ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Cell.source db ] ~views:[ R.Viewdef.simple view ] ~updates ())
  in
  let m = result.Core.Engine.metrics in
  Cell.record ~algorithm:(Paper.algo_label ~schedule algorithm) ~wall_s m;
  m

let ablation_ecak () =
  Cell.header "Ablation: ECAK vs ECA on a keyed view (k=40, half deletes)";
  Printf.printf "%-10s %10s %10s %10s\n" "algorithm" "messages" "tuples" "IO";
  List.iter
    (fun algorithm ->
      let m = run_keyed ~algorithm ~schedule:Core.Scheduler.Worst_case 40 in
      Printf.printf "%-10s %10d %10d %10d\n" algorithm
        (Core.Metrics.messages m)
        m.Core.Metrics.answer_tuples m.Core.Metrics.source_io)
    [ "eca"; "eca-key"; "eca-local"; "lca"; "rv" ]

let ablation_local_rate () =
  Cell.header "Ablation: ECAL local handling (best case, keyed workload, k=40)";
  List.iter
    (fun insert_ratio ->
      let m_eca =
        run_keyed ~algorithm:"eca" ~schedule:Core.Scheduler.Best_case
          ~insert_ratio 40
      in
      let m_ecal =
        run_keyed ~algorithm:"eca-local" ~schedule:Core.Scheduler.Best_case
          ~insert_ratio 40
      in
      Printf.printf
        "insert ratio %.1f: ECA sends %d queries, ECAL sends %d (%.0f%% \
         handled locally)\n"
        insert_ratio m_eca.Core.Metrics.queries_sent
        m_ecal.Core.Metrics.queries_sent
        (100.0
        *. float_of_int
             (m_eca.Core.Metrics.queries_sent
             - m_ecal.Core.Metrics.queries_sent)
        /. float_of_int (max 1 m_eca.Core.Metrics.queries_sent)))
    [ 1.0; 0.5; 0.2 ]

let ablation_sc () =
  Cell.header "Ablation: SC (store copies) vs ECA (k=40 keyed workload)";
  let m_sc = run_keyed ~algorithm:"sc" ~schedule:Core.Scheduler.Worst_case 40 in
  let m_eca =
    run_keyed ~algorithm:"eca" ~schedule:Core.Scheduler.Worst_case 40
  in
  let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:40 ~insert_ratio:0.5 ~seed:7 () in
  let { W.Scenarios.db; _ } = W.Scenarios.keyed spec in
  Printf.printf
    "SC : %d messages, %d transferred tuples, %d source IO, but stores %d \
     base tuples at the warehouse\n"
    (Core.Metrics.messages m_sc)
    m_sc.Core.Metrics.answer_tuples m_sc.Core.Metrics.source_io
    (R.Db.total_tuples db);
  Printf.printf "ECA: %d messages, %d transferred tuples, %d source IO\n"
    (Core.Metrics.messages m_eca)
    m_eca.Core.Metrics.answer_tuples m_eca.Core.Metrics.source_io

let ablation_outer_reads () =
  Cell.header "Ablation: Scenario 2 accounting with outer-loop reads charged";
  let spec = Paper.spec_for ~c:100 ~k:3 () in
  let { W.Scenarios.db; view; _ } = W.Scenarios.example6 spec in
  let q = R.Query.of_view view in
  let io count_outer_reads =
    let catalog =
      Storage.Catalog.make ~mode:Storage.Catalog.Limited_memory
        ~count_outer_reads ()
    in
    (Storage.Planner.query catalog db q).Storage.Plan.io
  in
  Printf.printf
    "full view recompute: %d IO (paper accounting) vs %d IO (outer reads \
     charged)\n"
    (io false) (io true)

let ablation_literal_eval () =
  Cell.header
    "Ablation: warehouse-local evaluation of literal-only terms (ECA, \
     worst case)";
  Printf.printf "%4s %14s %14s\n" "k" "local (tuples)" "shipped (tuples)";
  List.iter
    (fun k ->
      let spec = Paper.spec_for ~c:100 ~k () in
      let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
      let tuples local_literal_eval =
        let r =
          Core.Engine.run ~schedule:Core.Scheduler.Worst_case
            ~local_literal_eval ~creator:(Core.Registry.creator_exn "eca")
            ~sites:[ Cell.source db ] ~views:[ R.Viewdef.simple view ] ~updates ()
        in
        r.Core.Engine.metrics.Core.Metrics.answer_tuples
      in
      Printf.printf "%4d %14d %14d\n" k (tuples true) (tuples false))
    [ 10; 30; 60 ]

(* One line of messages, tuples, IO and the view's mean/max lag. *)
let print_lag_row fmt label (r : Core.Engine.result) =
  let m = r.metrics in
  let lag = Core.Staleness.of_trace r.trace "V" in
  Printf.printf fmt label (Core.Metrics.messages m) m.answer_tuples
    m.source_io lag.Core.Staleness.mean_lag lag.Core.Staleness.max_lag

let ablation_batching () =
  Cell.header "Ablation: batched notifications (Section 7 extension; ECA, k=30)";
  Printf.printf "%6s %10s %10s %10s %10s %8s\n" "batch" "messages" "tuples"
    "IO" "mean lag" "max lag";
  let spec = Paper.spec_for ~c:100 ~k:30 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  List.iter
    (fun batch_size ->
      print_lag_row "%6d %10d %10d %10d %10.2f %8d\n" batch_size
        (Core.Engine.run ~schedule:Core.Scheduler.Best_case ~batch_size
           ~creator:(Core.Registry.creator_exn "eca") ~sites:[ Cell.source db ]
           ~views:[ R.Viewdef.simple view ] ~updates ()))
    [ 1; 2; 5; 10; 30 ]

let ablation_timing () =
  Cell.header "Ablation: maintenance timing (Section 2; ECA, k=30)";
  Printf.printf "%-12s %10s %10s %10s %10s %8s\n" "timing" "messages"
    "tuples" "IO" "mean lag" "max lag";
  let spec = Paper.spec_for ~c:100 ~k:30 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  List.iter
    (fun (label, mode) ->
      print_lag_row "%-12s %10d %10d %10d %10.2f %8d\n" label
        (Core.Engine.run ~schedule:Core.Scheduler.Best_case
           ~creator:(Core.Timing.creator mode (Core.Registry.creator_exn "eca"))
           ~sites:[ Cell.source db ] ~views:[ R.Viewdef.simple view ] ~updates ()))
    [
      ("immediate", Core.Timing.Immediate);
      ("periodic-5", Core.Timing.Periodic 5);
      ("periodic-10", Core.Timing.Periodic 10);
      ("deferred", Core.Timing.Deferred);
    ]

let ablation_scan_sharing () =
  Cell.header "Ablation: multiple-term optimization (paper's conjecture)";
  (* Sharing only helps queries whose terms scan the same relation more
     than once. ECA's compensating terms carry literals and are answered
     by index probes, so single-SPJ ECA queries share almost nothing — a
     finding in itself. Multi-part (union) views DO repeat scans: their
     recompute and their per-update deltas read shared relations once per
     part. *)
  let spec = Paper.spec_for ~c:100 ~k:10 () in
  let { W.Scenarios.db; view = chain; updates } = W.Scenarios.example6 spec in
  let wide =
    R.View.natural_join ~name:"V#1"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r3" "Z" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2; W.Generator.chain_r3 ]
  in
  let vd = R.Viewdef.union ~name:"V" (R.Viewdef.simple chain) (R.Viewdef.simple wide) in
  Printf.printf "%-26s %14s %14s %8s\n" "workload" "independent IO"
    "shared-scan IO" "saved";
  List.iter
    (fun (label, algorithm, rv_period, schedule, views) ->
      let io share_scans =
        let catalog =
          Storage.Catalog.make ~mode:Storage.Catalog.Indexed_memory
            ~indexes:Storage.Catalog.example6_indexes ~share_scans ()
        in
        let r =
          Core.Engine.run ~schedule ?rv_period
            ~creator:(Core.Registry.creator_exn algorithm)
            ~sites:[ Cell.source ~catalog db ] ~views ~updates ()
        in
        r.Core.Engine.metrics.Core.Metrics.source_io
      in
      let independent = io false and shared = io true in
      Printf.printf "%-26s %14d %14d %7.0f%%\n" label independent shared
        (100.0
        *. float_of_int (independent - shared)
        /. float_of_int (max 1 independent)))
    [
      ("simple view / ECA worst", "eca", None, Core.Scheduler.Worst_case,
       [ R.Viewdef.simple chain ]);
      ("union view / ECA worst", "eca", None, Core.Scheduler.Worst_case, [ vd ]);
      ("union view / RV once", "rv", Some 10, Core.Scheduler.Best_case, [ vd ]);
    ]

let ablation_skew () =
  Cell.header "Ablation: join-attribute skew (Zipf; ECA vs one-shot RV, k=30)";
  Printf.printf "%6s %10s %12s %12s %12s\n" "skew" "J(r2,X)" "ECA tuples"
    "RV tuples" "ECA/RV";
  List.iter
    (fun skew ->
      let spec =
        W.Spec.make ~c:100 ~j:4 ~k_updates:30 ~seed:42 ~skew ()
      in
      let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
      let tuples ~rv_period algorithm schedule =
        let r =
          Core.Engine.run ~schedule ~rv_period
            ~creator:(Core.Registry.creator_exn algorithm) ~sites:[ Cell.source db ]
            ~views:[ R.Viewdef.simple view ] ~updates ()
        in
        r.Core.Engine.metrics.Core.Metrics.answer_tuples
      in
      let eca = tuples ~rv_period:1 "eca" Core.Scheduler.Worst_case in
      let rv = tuples ~rv_period:30 "rv" Core.Scheduler.Best_case in
      Printf.printf "%6.1f %10.2f %12d %12d %12.2f\n" skew
        (Storage.Stats.join_factor db "r2" "X")
        eca rv
        (float_of_int eca /. float_of_int (max 1 rv)))
    [ 0.0; 0.5; 1.0; 1.5 ]

let ablation_reliability () =
  Cell.header "Ablation: reliable delivery over faulty channels (ECA, k=20)";
  (* The fault-profile matrix, each crossed with {raw channels, reliable
     sublayer}. "logical" is the paper's M (queries + answers); "wire" is
     every physical transmission including retransmits, duplicates and
     acks — the reliability overhead is wire/baseline on the clean run. *)
  let spec = Paper.spec_for ~c:50 ~k:20 ~seed:11 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  (* Every cell is an independent seeded run: fan out over the pool, then
     record and print sequentially in matrix order. *)
  let exec_cell (name, fault, reliable) =
    let wall_s, result =
      Cell.timed (fun () ->
          Core.Engine.run ~schedule:(Core.Scheduler.Random 11)
            ~creator:(Core.Registry.creator_exn "eca")
            ~sites:[ Cell.source ~fault ~fault_seed:23 ~reliable db ]
            ~views:[ R.Viewdef.simple view ] ~updates ())
    in
    let ok = R.Bag.equal truth (List.assoc "V" result.Core.Engine.final_mvs) in
    (name, reliable, wall_s, result.Core.Engine.metrics, ok)
  in
  let cells = Parallel.Pool.map_list Cell.pool exec_cell (Cell.fault_matrix ()) in
  Printf.printf "%-12s %-9s %8s %8s %10s %6s %6s %6s %6s %9s %8s\n" "profile"
    "channel" "logical" "wire" "wire bytes" "retx" "dups" "acks" "ticks"
    "overhead" "correct";
  let baseline = ref 0 in
  List.iter
    (fun (name, reliable, wall_s, m, ok) ->
      let d = m.Core.Metrics.delivery in
      Cell.record ~delivery:true
        ~algorithm:(Printf.sprintf "eca[%s/%s]" name (Cell.channel reliable))
        ~wall_s m;
      if name = "clean" && not reliable then
        baseline := d.Core.Metrics.wire_bytes;
      Printf.printf "%-12s %-9s %8d %8d %10d %6d %6d %6d %6d %8.2fx %8s\n"
        name (Cell.channel reliable)
        (Core.Metrics.messages m)
        d.Core.Metrics.wire_messages d.Core.Metrics.wire_bytes
        d.Core.Metrics.retransmits d.Core.Metrics.dups_dropped
        d.Core.Metrics.acks d.Core.Metrics.ticks
        (float_of_int d.Core.Metrics.wire_bytes
        /. float_of_int (max 1 !baseline))
        (if ok then "yes" else "NO"))
    cells

let ablation_observe () =
  Cell.header "Ablation: observability layer (ECA, reliable chaos, k=20)";
  let spec = Paper.spec_for ~c:50 ~k:20 ~seed:11 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let run ~observe () =
    Cell.timed (fun () ->
        Core.Engine.run ~schedule:(Core.Scheduler.Random 11)
          ?observe:(Cell.collector observe)
          ~creator:(Core.Registry.creator_exn "eca")
          ~sites:
            [
              Cell.source ~fault:W.Scenarios.chaos_profile ~fault_seed:23
                ~reliable:true db;
            ]
          ~views:[ R.Viewdef.simple view ] ~updates ())
  in
  let t_off, off = run ~observe:false () in
  let t_on, on = run ~observe:true () in
  (* Spans off must cost nothing observable: same seeds, same schedule,
     and — with the summary erased — the exact same exported bytes. *)
  let scrubbed =
    {
      on with
      Core.Engine.metrics =
        { on.Core.Engine.metrics with Core.Metrics.observe = None };
    }
  in
  let identical =
    String.equal (Core.Json_export.result off) (Core.Json_export.result scrubbed)
  in
  (* Overhead as best-of-3 per path, so one descheduled run does not
     dominate the ratio. *)
  let t_off = Cell.best t_off (run ~observe:false) in
  let t_on = Cell.best t_on (run ~observe:true) in
  let overhead = t_on /. Float.max 1e-9 t_off in
  Cell.record ~algorithm:"eca[chaos/reliable/spans-off]" ~wall_s:t_off
    off.Core.Engine.metrics;
  Cell.record ~algorithm:"eca[chaos/reliable/spans-on]" ~wall_s:t_on
    on.Core.Engine.metrics;
  let o = Cell.observed "observe" on in
  Printf.printf "spans-off output byte-identical to the unobserved run: %s\n"
    (if identical then "yes" else "NO");
  Printf.printf
    "spans: %d (forced %d, dropped %d)  gauges: %d  compensations: %d  \
     collect installs: %d (depth max %d)\n"
    o.spans o.span_forced o.span_dropped o.gauges o.compensations
    o.collect_installs o.collect_depth_max;
  Printf.printf "UQS residency: %d samples, mean %.2f engine steps\n"
    o.uqs_residency.samples
    (Core.Metrics.hist_mean o.uqs_residency);
  List.iter
    (fun (v, (s : Core.Metrics.staleness_gauge)) ->
      Printf.printf
        "staleness[%s]: final %d, max %d, quiesce max %d (%d samples)\n" v
        s.stale_final s.stale_max s.stale_quiesce_max s.stale_samples)
    o.staleness;
  (* check_determinism.sh strips this line: wall-clock ratios are noise
     between any two runs. *)
  Printf.printf "observe overhead (spans on / spans off): %.2fx\n" overhead;
  if not identical then
    failwith "observability layer changed the spans-off output";
  Cell.section "observe"
    Cell.
      [ ("byte_identical_off", Bool identical);
        ("overhead_x", Fixed (3, overhead)); ("spans", Int o.spans);
        ("span_forced", Int o.span_forced);
        ("span_dropped", Int o.span_dropped); ("gauges", Int o.gauges);
        ("compensations", Int o.compensations);
        ("collect_installs", Int o.collect_installs);
        ("collect_depth_max", Int o.collect_depth_max);
        ("uqs_residency_samples", Int o.uqs_residency.samples);
        ("uqs_residency_mean", Fixed (3, Core.Metrics.hist_mean o.uqs_residency));
        ( "staleness",
          Arr
            (List.map
               (fun (v, (s : Core.Metrics.staleness_gauge)) ->
                 Obj
                   [ ("view", Str v); ("final", Int s.stale_final);
                     ("max", Int s.stale_max);
                     ("quiesce_max", Int s.stale_quiesce_max);
                     ("samples", Int s.stale_samples) ])
               o.staleness) ) ]

let ablation_compound_views () =
  Cell.header "Extension: union/difference views (Section 7; k=30, worst case)";
  let spec = Paper.spec_for ~c:100 ~k:30 () in
  let { W.Scenarios.db; view = chain; updates } = W.Scenarios.example6 spec in
  (* union = chain ∪ the chain join without its selection; difference =
     chain \ high-W chain *)
  let chain_wide =
    R.View.natural_join ~name:"V#1w"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r3" "Z" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2; W.Generator.chain_r3 ]
  in
  let high =
    R.View.natural_join ~name:"V#2"
      ~extra_cond:(R.Parser.parse_predicate "r1.W > 800")
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r3" "Z" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2; W.Generator.chain_r3 ]
  in
  let vd_union =
    R.Viewdef.union ~name:"V" (R.Viewdef.simple chain)
      (R.Viewdef.simple chain_wide)
  in
  let vd_diff =
    R.Viewdef.diff ~name:"V" (R.Viewdef.simple chain) (R.Viewdef.simple high)
  in
  Printf.printf "%-22s %10s %10s %10s %s\n" "view / algorithm" "messages"
    "tuples" "IO" "verdict";
  List.iter
    (fun (label, vd) ->
      List.iter
        (fun (algorithm, rv_period) ->
          let r =
            Core.Engine.run ~schedule:Core.Scheduler.Worst_case ?rv_period
              ~creator:(Core.Registry.creator_exn algorithm)
              ~sites:[ Cell.source db ] ~views:[ vd ] ~updates ()
          in
          let m = r.Core.Engine.metrics in
          Printf.printf "%-22s %10d %10d %10d %s\n"
            (label ^ "/" ^ algorithm)
            (Core.Metrics.messages m)
            m.Core.Metrics.answer_tuples m.Core.Metrics.source_io
            (Core.Consistency.strongest_label
               (List.assoc "V" r.Core.Engine.reports)))
        [ ("eca", None); ("lca", None); ("rv", Some 30) ])
    [ ("union", vd_union); ("difference", vd_diff) ]
