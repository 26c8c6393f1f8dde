(* Wall-clock sections: sustained SC throughput of the staged delta
   programs against the interpreted reference, and Bechamel timings of
   full simulated runs (skipped by `bench/main.exe quick`). *)

module R = Relational
module W = Workload

(* ------------------------------------------------------------------ *)
(* Sustained throughput: compiled delta programs vs interpreted        *)
(* ------------------------------------------------------------------ *)

(* The interpreted reference for SC's batched apply: [Centralized.step]
   per update folded into the view with [Mview.apply_delta], one install
   per batch iff some delta was non-empty — SC's batch semantics without
   the staged delta programs. Returns the final replica, the final view
   and the installed states, oldest first. *)
let interpreted_replay vd db mv batches =
  let db, mv, installs =
    List.fold_left
      (fun (db, mv, installs) batch ->
        let db, mv, changed =
          List.fold_left
            (fun (db, mv, changed) u ->
              let db, delta = Core.Centralized.step vd db u in
              if R.Bag.is_empty delta then (db, mv, changed)
              else (db, Core.Mview.apply_delta mv delta, true))
            (db, mv, false) batch
        in
        (db, mv, if changed then mv :: installs else installs))
      (db, mv, []) batches
  in
  (db, mv, List.rev installs)

(* The schema-v6 headline. Two parts:

   1. Sustained apply: the full k-update stream in batches of 32 —
      replica apply, delta evaluation and install accumulation, none of
      the transport/trace/consistency scaffolding — once through
      [Sc.on_batch] (the staged delta programs) and once through the
      [interpreted_replay] reference. Updates/sec of the compiled leg is
      what scripts/perf_guard.sh gates; both legs must agree on the
      final materialized view, replica and install count.

   2. End-to-end checks at a smaller k through the real engine: the SC
      run's installed states and final view must equal the interpreted
      replay over the same 32-update batches, and one observed run per
      algorithm yields apply-latency (SC edge spans) and query-residency
      (ECA UQS) p50/p99 via [Metrics.hist_quantile] — engine steps, so
      deterministic. *)
let bench_throughput () =
  Cell.header "Throughput: sustained apply, compiled vs interpreted (batch=32)";
  let batch_size = 32 in
  (* --- Part 1: direct apply path, bounded churn, k=4992 --- *)
  (* A warehouse-refresh churn stream: blocks of 32 same-relation inserts
     cycling r1, r2, r3, with every second visit to a relation deleting
     the block its previous visit inserted. Same-class blocks are what
     the engine's edge coalescing produces under bulk loads, and the
     delete-what-you-inserted discipline keeps the replica (and the join
     sizes both legs pay for) bounded, so the stream's throughput is
     sustained rather than degrading as the join fans out. *)
  let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:1 ~seed:7 () in
  let { W.Scenarios.db; view; _ } = W.Scenarios.example6 spec in
  let st = Random.State.make [| 1007 |] in
  let dom = W.Spec.join_domain spec in
  let vr = spec.W.Spec.value_range in
  let rand n = if n <= 0 then 0 else Random.State.int st n in
  let fresh = function
    | "r1" -> R.Tuple.ints [ rand vr; rand dom ]
    | "r2" -> R.Tuple.ints [ rand dom; rand dom ]
    | "r3" -> R.Tuple.ints [ rand dom; rand vr ]
    | _ -> assert false
  in
  let rels = [| "r1"; "r2"; "r3" |] in
  let n_blocks = 156 in
  let pending = Array.init 3 (fun _ -> Queue.create ()) in
  let batches =
    List.init n_blocks (fun b ->
        let ri = b mod 3 in
        let rel = rels.(ri) in
        if (b / 3) mod 2 = 1 then
          List.map (R.Update.delete rel) (Queue.pop pending.(ri))
        else begin
          let ts = List.init batch_size (fun _ -> fresh rel) in
          Queue.push ts pending.(ri);
          List.map (R.Update.insert rel) ts
        end)
  in
  let k_updates = n_blocks * batch_size in
  let cfg = Core.Algorithm.Config.of_view_db view db in
  let drive_interpreted () =
    Cell.timed (fun () ->
        let replica, mv, installs =
          interpreted_replay cfg.Core.Algorithm.Config.view db
            cfg.Core.Algorithm.Config.init_mv batches
        in
        (replica, mv, List.length installs))
  in
  let drive_compiled () =
    let t = Core.Sc.create cfg in
    Cell.timed (fun () ->
        let installs =
          List.fold_left
            (fun n b ->
              n + List.length (Core.Sc.on_batch t b).Core.Algorithm.installs)
            0 batches
        in
        (Core.Sc.replica t, Core.Sc.mv t, installs))
  in
  let t_int0, (replica_int, mv_int, n_int) = drive_interpreted () in
  let t_cmp0, (replica_cmp, mv_cmp, n_cmp) = drive_compiled () in
  let t_int = Cell.best t_int0 drive_interpreted in
  let t_cmp = Cell.best t_cmp0 drive_compiled in
  let legs_agree =
    R.Bag.equal mv_int mv_cmp && R.Db.equal replica_int replica_cmp
    && n_int = n_cmp
  in
  let per_s t = float_of_int k_updates /. Float.max 1e-9 t in
  let speedup = t_int /. Float.max 1e-9 t_cmp in
  (* --- Part 2: end-to-end byte identity and latency percentiles --- *)
  let k_e2e = 200 in
  let e2e_spec = W.Spec.make ~c:50 ~j:4 ~k_updates:k_e2e ~seed:7 () in
  let e2e = W.Scenarios.example6 e2e_spec in
  let e2e_vd = R.Viewdef.simple e2e.W.Scenarios.view in
  let run ~algorithm ?(observe = false) () =
    Cell.timed (fun () ->
        Core.Engine.run ~schedule:Core.Scheduler.Best_case ~batch_size
          ?observe:(Cell.collector observe)
          ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Cell.source e2e.W.Scenarios.db ]
          ~views:[ e2e_vd ] ~updates:e2e.W.Scenarios.updates ())
  in
  let t_rcmp, r_cmp = run ~algorithm:"sc" () in
  (* One source under Best_case: the engine's batches are consecutive
     32-update chunks of the stream. The staged programs must install
     exactly the interpreted replay's states and end at its view. *)
  let rec chunks = function
    | [] -> []
    | us ->
      List.filteri (fun i _ -> i < batch_size) us
      :: chunks (List.filteri (fun i _ -> i >= batch_size) us)
  in
  let mv0 = R.Viewdef.eval e2e.W.Scenarios.db e2e_vd in
  let _, replay_mv, replay_installs =
    interpreted_replay e2e_vd e2e.W.Scenarios.db mv0
      (chunks e2e.W.Scenarios.updates)
  in
  let name = e2e_vd.R.Viewdef.name in
  let identical =
    List.equal R.Bag.equal
      (mv0 :: replay_installs)
      (Core.Trace.warehouse_states r_cmp.Core.Engine.trace name)
    && R.Bag.equal replay_mv (List.assoc name r_cmp.Core.Engine.final_mvs)
  in
  Cell.record ~algorithm:"sc[batch=32/compiled]" ~wall_s:t_rcmp
    r_cmp.Core.Engine.metrics;
  (* Apply latency: note flight+handling per edge, in engine steps
     (deterministic). SC sends no queries, so its UQS histogram is empty;
     query residency comes from an observed ECA run instead. *)
  let summary algorithm =
    Cell.observed algorithm (snd (run ~algorithm ~observe:true ()))
  in
  let sc_obs = summary "sc" in
  let eca_obs = summary "eca" in
  let apply_hist =
    match sc_obs.Core.Metrics.edge_latency with
    | (_, h) :: _ -> h
    | [] -> failwith "observed sc run produced no edge-latency histogram"
  in
  let q h p = Core.Metrics.hist_quantile h p in
  let apply_p50 = q apply_hist 0.5 and apply_p99 = q apply_hist 0.99 in
  let uqs = eca_obs.Core.Metrics.uqs_residency in
  let uqs_p50 = q uqs 0.5 and uqs_p99 = q uqs 0.99 in
  Printf.printf "compiled SC run installs the interpreted replay's states: %s\n"
    (if identical then "yes" else "NO");
  Printf.printf "compiled and interpreted legs agree (mv/replica/installs): %s\n"
    (if legs_agree then "yes" else "NO");
  Printf.printf
    "apply latency (sc, engine steps): p50 %d, p99 %d (%d samples)\n" apply_p50
    apply_p99 apply_hist.Core.Metrics.samples;
  Printf.printf "query residency (eca, engine steps): p50 %d, p99 %d\n" uqs_p50
    uqs_p99;
  (* check_determinism.sh strips "throughput ..." lines: wall-clock rates
     are noise between any two runs. *)
  Printf.printf "throughput sc compiled:    %10.0f updates/s\n" (per_s t_cmp);
  Printf.printf "throughput sc interpreted: %10.0f updates/s\n" (per_s t_int);
  Printf.printf "throughput compiled speedup: %.2fx\n" speedup;
  if not identical then
    failwith "compiled SC run diverged from the interpreted replay";
  if not legs_agree then
    failwith "compiled delta programs changed the applied state";
  let seed =
    Option.map
      (fun s -> ("seed_updates_per_s", Cell.Fixed (1, s)))
      (Cell.baseline "seed_updates_per_s")
  in
  Cell.section "throughput"
    Cell.(
      [ ("algorithm", Str "sc"); ("batch_size", Int batch_size);
        ("updates", Int k_updates); ("updates_per_s", Fixed (1, per_s t_cmp));
        ("interpreted_updates_per_s", Fixed (1, per_s t_int));
        ("compiled_speedup_x", Fixed (3, speedup)) ]
      @ Option.to_list seed
      @ [ ("apply_latency_p50_steps", Int apply_p50);
          ("apply_latency_p99_steps", Int apply_p99);
          ("uqs_p50_steps", Int uqs_p50); ("uqs_p99_steps", Int uqs_p99);
          ("byte_identical_interpreted", Bool identical) ])

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock                                                 *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  Cell.header "Bechamel: wall-clock of full simulated runs";
  let spec = Paper.spec_for ~c:100 ~k:40 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let run_algo ?rv_period algorithm schedule () =
    ignore
      (Core.Engine.run ~schedule ?rv_period
         ~creator:(Core.Registry.creator_exn algorithm) ~sites:[ Cell.source db ]
         ~views:[ R.Viewdef.simple view ] ~updates ())
  in
  let algo_tests =
    [
      Test.make ~name:"eca-best"
        (Staged.stage (run_algo "eca" Core.Scheduler.Best_case));
      Test.make ~name:"eca-worst"
        (Staged.stage (run_algo "eca" Core.Scheduler.Worst_case));
      Test.make ~name:"lca-worst"
        (Staged.stage (run_algo "lca" Core.Scheduler.Worst_case));
      Test.make ~name:"rv-every-update"
        (Staged.stage (run_algo ~rv_period:1 "rv" Core.Scheduler.Best_case));
      Test.make ~name:"rv-once"
        (Staged.stage (run_algo ~rv_period:40 "rv" Core.Scheduler.Best_case));
      Test.make ~name:"sc" (Staged.stage (run_algo "sc" Core.Scheduler.Best_case));
    ]
  in
  (* One Test.make per regenerated artifact: times one representative
     measured data point of each table/figure. These go through
     [Paper.exec_corner] directly — never the corner table (which would
     time a lookup) and never [Paper.record_corner] (Bechamel iterations
     must not leak into the runs array; iteration counts are time-adaptive
     and would make the emitted JSON nondeterministic). *)
  let corner_point scenario c k () =
    ignore (Paper.exec_corner { ck_scenario = scenario; ck_c = c; ck_k = k })
  in
  let figure_tests =
    [
      Test.make ~name:"table1"
        (Staged.stage (fun () -> ignore (W.Scenarios.example6 (Paper.spec_for ()))));
      Test.make ~name:"sec6.1-messages" (Staged.stage (corner_point 1 50 5));
      Test.make ~name:"fig6.2-point" (Staged.stage (corner_point 1 10 3));
      Test.make ~name:"fig6.3-point" (Staged.stage (corner_point 1 100 15));
      Test.make ~name:"fig6.4-point" (Staged.stage (corner_point 1 100 5));
      Test.make ~name:"fig6.5-point" (Staged.stage (corner_point 2 100 5));
    ]
  in
  let groups =
    [
      Test.make_grouped ~name:"algorithms" algo_tests;
      Test.make_grouped ~name:"figures" figure_tests;
    ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ instance ] group in
      let results = Analyze.all ols instance raw in
      let rows =
        Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, r) ->
          match Analyze.OLS.estimates r with
          | Some (est :: _) -> Printf.printf "%-40s %14.0f ns/run\n" name est
          | Some [] | None -> Printf.printf "%-40s (no estimate)\n" name)
        rows)
    groups
