(* The warehouse maintenance benchmark: drives Core.Engine.run end to end
   on one named workload and prints its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--spans-out FILE]

   With --trace 0 it repeats untraced runs for S seconds and reports the
   end-to-end metrics. With --trace 1 it alternates untraced, traced and
   observed runs and reports the per-layer ledger: warehouse handlers
   are timed by wrapping the algorithm creator, source and oracle work by
   replaying the run's own logged inputs through the public functions,
   and the judge by re-running Consistency.check on the trace. Every run
   passes a correctness gate; the last line of standard output is one
   JSON object, and the exit code is 1 when any view failed the gate. *)

module R = Relational
module B = Perfbench
module Spans = B.Spans

let now = Spans.now
let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

let settle () = Gc.compact ()

(* ------------------------------------------------------------------ *)
(* Running the engine and gating its output                            *)
(* ------------------------------------------------------------------ *)

let engine_run ?observe ?(track_scale = false) ?creator (w : B.Workloads.t) =
  Core.Engine.run ~schedule:w.schedule ~share_deltas:w.share_deltas
    ~coalesce:w.coalesce ~track_scale ?observe
    ~creator:(Option.value creator ~default:w.creator)
    ~sites:w.sites ~views:w.views ~updates:w.updates ()

let attempt f =
  match f () with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

(* Each view evaluated over its source's database rebuilt by replaying
   the workload's updates. *)
let truth (w : B.Workloads.t) =
  let final_db (s : Core.Engine.site_spec) =
    let rels = R.Db.relation_names s.db in
    R.Db.apply_all s.db
      (List.filter (fun (u : R.Update.t) -> List.mem u.rel rels) w.updates)
  in
  let dbs = List.map (fun s -> (R.Db.relation_names s.Core.Engine.db, final_db s)) w.sites in
  List.map
    (fun (v : R.Viewdef.t) ->
      let rel = List.hd (R.Viewdef.relation_names v) in
      let _, db = List.find (fun (rels, _) -> List.mem rel rels) dbs in
      (v.name, R.Viewdef.eval db v))
    w.views

type tally = {
  mutable checked : int;
  mutable failed : int;
}

let complain fmt = Printf.ksprintf (fun s -> prerr_endline ("gate: " ^ s)) fmt

(* The correctness gate: each final view equals the replayed truth, each
   report is strongly consistent, no view installed a negative state and
   the warehouse absorbed no anomaly. An engine failure fails every view. *)
let gate tally truth = function
  | Error msg ->
    complain "run failed: %s" msg;
    tally.checked <- tally.checked + List.length truth;
    tally.failed <- tally.failed + List.length truth
  | Ok (r : Core.Engine.result) ->
    let anomalies = r.warehouse_anomalies <> [] in
    if anomalies then
      complain "warehouse anomalies: %s" (String.concat "; " r.warehouse_anomalies);
    List.iter
      (fun (name, expected) ->
        let ok_final =
          match List.assoc_opt name r.final_mvs with
          | Some mv -> R.Bag.equal mv expected
          | None -> false
        in
        let ok_report =
          match List.assoc_opt name r.reports with
          | Some rep -> rep.Core.Consistency.strongly_consistent
          | None -> false
        in
        let ok_negative = not (List.mem_assoc name r.negative_installs) in
        let ok = ok_final && ok_report && ok_negative && not anomalies in
        if not ok then
          complain "view %s: final=%b strongly_consistent=%b no_negative=%b" name
            ok_final ok_report ok_negative;
        tally.checked <- tally.checked + 1;
        if not ok then tally.failed <- tally.failed + 1)
      truth

(* Repeat [step] until the deadline has passed and at least [min_runs]
   steps ran. *)
let repeat ~deadline ~min_runs step =
  let rec go k =
    if k >= min_runs && now () >= deadline then ()
    else begin
      step k;
      go (k + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Metrics output                                                      *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every metric as a line; then the JSON result, which carries [metrics]
   but not [printed]. *)
let print_result ~tally ?(printed = []) metrics =
  List.iter
    (fun x -> Printf.printf "%-36s %18.6f %s\n" x.name x.value x.unit_)
    (metrics @ printed);
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.checked tally.failed body

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (untraced runs)                                  *)
(* ------------------------------------------------------------------ *)

(* The JSON metrics, and the paper's M, B and IO per update plus the
   failed-view share, which are printed only: each is 0 on some workload,
   where a relative bound means nothing. *)
let end_to_end ~name ~seed ~truth ~tally ~deadline =
  let walls = ref [] and setups = ref [] and updates = ref 0 in
  let counts = ref [] and printed = ref [] in
  repeat ~deadline ~min_runs:3 (fun k ->
      (* Each run sets its inputs up afresh, so set-up is sampled across
         the whole window like the runs themselves. *)
      settle ();
      let setup, w = timed (fun () -> B.Workloads.build name seed) in
      setups := setup :: !setups;
      settle ();
      let wall, r = timed (fun () -> attempt (fun () -> engine_run w)) in
      gate tally truth r;
      match r with
      | Error _ -> ()
      | Ok r ->
        walls := wall :: !walls;
        updates := r.metrics.updates;
        (* Counts and freshness are deterministic for the seed: take
           them from the first run, then let its result go. *)
        if k = 0 then begin
          let mt = r.metrics in
          let u = mt.updates in
          let lags = List.map float_of_int (B.Lag.of_trace r.trace) in
          let retained_words = Obj.reachable_words (Obj.repr r) in
          counts :=
            [
              m "retained_mb" "MB"
                (float_of_int (retained_words * (Sys.word_size / 8)) /. 1e6);
              m "lag_updates_p50" "updates" (quantile 0.5 lags);
              m "lag_updates_p99" "updates" (quantile 0.99 lags);
              m "wire_frames_per_update" "frames/update"
                (idiv mt.delivery.wire_messages u);
            ];
          printed :=
            [
              m "msgs_per_update" "msgs/update" (idiv (Core.Metrics.messages mt) u);
              m "answer_bytes_per_update" "B/update" (idiv mt.answer_bytes u);
              m "source_io_per_update" "io/update" (idiv mt.source_io u);
            ]
        end);
  (* The rate comes from the fastest run: every run repeats the same
     deterministic work, and a shared host's interference only adds
     time, in episodes lasting seconds that a median straddles. *)
  let fastest = List.fold_left Float.min Float.infinity !walls in
  Printf.printf "runs %d, Engine.run wall fastest %.6f s, median %.6f s (%s), updates %d\n"
    (List.length !walls) fastest (median !walls)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !walls))
    !updates;
  ( [
      m "updates_per_s" "1/s" (fdiv (float_of_int !updates) fastest);
      m "setup_s" "s" (median !setups);
    ]
    @ !counts,
    !printed
    @ [ m "failed_view_share" "ratio" (idiv tally.failed tally.checked) ] )

(* ------------------------------------------------------------------ *)
(* Per-layer ledger (traced runs)                                      *)
(* ------------------------------------------------------------------ *)

let rungs = [ "eca"; "eca-local"; "eca-key"; "eca-sm"; "sc" ]

type rung_stats = {
  mutable calls : int;
  mutable queries : int;
  mutable terms : int;
  mutable installs : int;
  mutable durs : float list;
}

(* Wrap every hosted instance so its four handlers run inside spans. *)
let traced_creator spans ~run ~parent stats (w : B.Workloads.t) cfg =
  let inst : Core.Algorithm.instance = w.creator cfg in
  let rung = B.Workloads.rung w cfg.Core.Algorithm.Config.view.R.Viewdef.name in
  let st =
    match Hashtbl.find_opt stats rung with
    | Some st -> st
    | None ->
      let st = { calls = 0; queries = 0; terms = 0; installs = 0; durs = [] } in
      Hashtbl.replace stats rung st;
      st
  in
  let name = "warehouse." ^ rung in
  let timed_call f =
    let start = Spans.now () in
    let (out : Core.Algorithm.outcome) = f () in
    let stop = Spans.now () in
    Spans.add spans ~name ~start ~stop ~parent ~run;
    st.calls <- st.calls + 1;
    st.durs <- (stop -. start) :: st.durs;
    st.queries <- st.queries + List.length out.send;
    st.terms <-
      List.fold_left (fun acc (_, q) -> acc + R.Query.term_count q) st.terms out.send;
    st.installs <- st.installs + List.length out.installs;
    out
  in
  {
    inst with
    on_update = (fun u -> timed_call (fun () -> inst.on_update u));
    on_batch = (fun us -> timed_call (fun () -> inst.on_batch us));
    on_answer = (fun ~id a -> timed_call (fun () -> inst.on_answer ~id a));
    on_quiesce = (fun () -> timed_call inst.on_quiesce);
  }

(* Source work: a fresh source per site replays the run's own event log
   — updates through execute_update, queries through answer_query, each
   answer checked against the logged one. *)
let replay_sources spans ~run ~parent (w : B.Workloads.t) (r : Core.Engine.result) =
  let apply_calls = ref 0 and query_durs = ref [] in
  let tuples = ref 0 and io = ref 0 in
  List.iter2
    (fun (spec : Core.Engine.site_spec) (_, logged) ->
      let src = Source_site.Source.create ?catalog:spec.catalog spec.db in
      List.iter
        (function
          | Source_site.Source.S_up u ->
            incr apply_calls;
            ignore
              (Spans.time spans ~name:"source_site.apply" ~parent ~run (fun () ->
                   Source_site.Source.execute_update src u))
          | Source_site.Source.S_qu { id; query; answer; _ } ->
            let dur, (got, cost) =
              Spans.time spans ~name:"source_site.query" ~parent ~run (fun () ->
                  Source_site.Source.answer_query src ~id query)
            in
            if not (R.Bag.equal got answer) then
              failwith "source replay: an answer differs from the logged one";
            query_durs := dur :: !query_durs;
            tuples := !tuples + R.Bag.cardinality got;
            io := !io + cost.Storage.Cost.io
          | Source_site.Source.S_ddl d -> Source_site.Source.execute_ddl src d)
        (Source_site.Source.events logged))
    w.sites r.sources;
  (!apply_calls, !query_durs, !tuples, !io)

(* Oracle work: the engine's compiled advance — one apply_batch per
   update-class run per affected view — replayed from the trace. The
   source side of each run is re-executed outside the spans. *)
let replay_oracle spans ~run ~parent (w : B.Workloads.t) (r : Core.Engine.result) =
  let dbs = Array.of_list (List.map (fun (s : Core.Engine.site_spec) -> s.db) w.sites) in
  let owner = Hashtbl.create 64 in
  Array.iteri
    (fun i db -> List.iter (fun rel -> Hashtbl.replace owner rel i) (R.Db.relation_names db))
    dbs;
  let views = Array.of_list w.views in
  let site_views = Array.make (Array.length dbs) [] in
  Array.iteri
    (fun vi v ->
      let i = Hashtbl.find owner (List.hd (R.Viewdef.relation_names v)) in
      site_views.(i) <- vi :: site_views.(i))
    views;
  let initial = Core.Trace.initial_views r.trace in
  let snap = Array.map (fun (v : R.Viewdef.t) -> List.assoc v.name initial) views in
  let staged = Array.make (Array.length views) None in
  let batches = ref 0 and delta_tuples = ref 0 in
  let advance i (us : R.Update.t list) =
    let first = List.hd us in
    let tuples = List.map (fun (u : R.Update.t) -> u.tuple) us in
    List.iter
      (fun vi ->
        let prog =
          match staged.(vi) with
          | Some p -> p
          | None ->
            let p = R.Delta_program.stage views.(vi) in
            staged.(vi) <- Some p;
            p
        in
        match R.Delta_program.of_update prog first with
        | None -> ()
        | Some p ->
          let delta = R.Delta_program.apply_batch p dbs.(i) tuples in
          snap.(vi) <- R.Bag.plus snap.(vi) delta;
          incr batches;
          delta_tuples := !delta_tuples + R.Bag.cardinality delta)
      site_views.(i)
  in
  List.iter
    (function
      | Core.Trace.Source_update { updates = (u :: _) as updates; _ } ->
        let i = Hashtbl.find owner u.rel in
        List.iter
          (fun run_us ->
            dbs.(i) <- R.Db.apply_all dbs.(i) run_us;
            ignore
              (Spans.time spans ~name:"relational.oracle" ~parent ~run (fun () ->
                   advance i run_us)))
          (R.Delta_program.runs updates)
      | _ -> ())
    (Core.Trace.entries r.trace);
  Array.iteri
    (fun vi (v : R.Viewdef.t) ->
      if not (R.Bag.equal snap.(vi) (List.assoc v.name r.final_source_views)) then
        failwith ("oracle replay: final state differs for view " ^ v.name))
    views;
  (!batches, !delta_tuples)

(* The judge: Consistency.check re-run on the trace's state sequences. *)
let replay_judge spans ~run ~parent (w : B.Workloads.t) (r : Core.Engine.result) =
  let source_states = ref 0 and warehouse_states = ref 0 in
  List.iter
    (fun (v : R.Viewdef.t) ->
      let _, report =
        Spans.time spans ~name:"consistency.check" ~parent ~run (fun () ->
            let ss = Core.Trace.source_states r.trace v.name in
            let ws = Core.Trace.warehouse_states r.trace v.name in
            source_states := !source_states + List.length ss;
            warehouse_states := !warehouse_states + List.length ws;
            Core.Consistency.check ~source_states:ss ~warehouse_states:ws)
      in
      if report <> List.assoc v.name r.reports then
        failwith ("judge replay: report differs for view " ^ v.name))
    w.views;
  (!source_states, !warehouse_states)

(* Per-run ledger values, keyed by metric name. *)
let ledger spans ~run ~stats ~(r : Core.Engine.result) ~replayed =
  let self = Spans.self_times spans ~run in
  let layer name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let root = Spans.find_root spans ~run ~name:"engine.run" in
  let wall = Spans.duration root in
  let warehouse = List.fold_left (fun acc g -> acc +. layer ("warehouse." ^ g)) 0.0 rungs in
  let replayed_s =
    layer "source_site.apply" +. layer "source_site.query"
    +. layer "relational.oracle" +. layer "consistency.check"
  in
  let attributed = warehouse +. replayed_s in
  (* The engine.run span's self time is its wall time not spent in the
     warehouse spans; the replayed layers came out of that share. *)
  let unattributed = layer "engine.run" -. replayed_s in
  if Float.abs (attributed +. unattributed -. wall) > 1e-6 then
    failwith
      (Printf.sprintf "ledger: attributed %.9f + unattributed %.9f <> traced wall %.9f"
         attributed unattributed wall);
  let (apply_calls, query_durs, tuples, io), (batches, delta_tuples), (ss, ws) =
    replayed
  in
  let mt = r.metrics in
  let u = mt.updates in
  let d = mt.delivery in
  let nq = List.length query_durs in
  let scale = Option.get mt.scale in
  let rung_metrics g =
    let st =
      Option.value (Hashtbl.find_opt stats g)
        ~default:{ calls = 0; queries = 0; terms = 0; installs = 0; durs = [] }
    in
    let p = "warehouse." ^ g in
    [
      m (p ^ ".busy_s") "s" (layer p);
      m (p ^ ".calls") "count" (float_of_int st.calls);
      m (p ^ ".call_us_p50") "us" (1e6 *. quantile 0.5 st.durs);
      m (p ^ ".call_us_p99") "us" (1e6 *. quantile 0.99 st.durs);
      m (p ^ ".queries_per_call") "queries/call" (idiv st.queries st.calls);
      m (p ^ ".terms_per_query") "terms/query" (idiv st.terms st.queries);
      m (p ^ ".installs") "count" (float_of_int st.installs);
    ]
  in
  [
    m "source_site.apply_s" "s" (layer "source_site.apply");
    m "source_site.apply_calls" "count" (float_of_int apply_calls);
    m "source_site.query_s" "s" (layer "source_site.query");
    m "source_site.query_calls" "count" (float_of_int nq);
    m "source_site.query_us_p50" "us" (1e6 *. quantile 0.5 query_durs);
    m "source_site.query_us_p99" "us" (1e6 *. quantile 0.99 query_durs);
    m "source_site.tuples_per_answer" "tuples/answer" (idiv tuples nq);
    m "source_site.io_per_query" "io/query" (idiv io nq);
    m "source_site.answer_bytes_per_update" "B/update" (idiv mt.answer_bytes u);
    m "source_site.io_per_update" "io/update" (idiv mt.source_io u);
  ]
  @ List.concat_map rung_metrics rungs
  @ [
      m "warehouse.shared_hits" "count"
        (float_of_int
           (match mt.shared with Some s -> s.Core.Metrics.shared_hits | None -> 0));
      m "relational.oracle_s" "s" (layer "relational.oracle");
      m "relational.oracle_batches" "count" (float_of_int batches);
      m "relational.delta_tuples" "count" (float_of_int delta_tuples);
      m "consistency.check_s" "s" (layer "consistency.check");
      m "consistency.source_states" "count" (float_of_int ss);
      m "consistency.warehouse_states" "count" (float_of_int ws);
      m "messaging.msgs_per_update" "msgs/update" (idiv (Core.Metrics.messages mt) u);
      m "messaging.wire_frames" "count" (float_of_int d.wire_messages);
      m "messaging.retransmits" "count" (float_of_int d.retransmits);
      m "messaging.dups_dropped" "count" (float_of_int d.dups_dropped);
      m "messaging.acks" "count" (float_of_int d.acks);
      (* Clean FIFO edges deliver every frame exactly once. *)
      m "messaging.goodput" "ratio"
        (if d.delivered = 0 then 1.0 else idiv d.delivered d.wire_messages);
      m "scheduler.steps_per_update" "steps/update" (idiv mt.steps u);
      m "scheduler.ticks" "count" (float_of_int d.ticks);
      m "scheduler.inflight_max" "count" (float_of_int scale.inflight_max);
      m "scheduler.active_max" "count" (float_of_int scale.active_max);
      m "engine.traced_wall_s" "s" wall;
      m "engine.unattributed_s" "s" unattributed;
      m "engine.unattributed_share" "ratio" (fdiv unattributed wall);
    ]

let per_layer ~w ~truth ~tally ~deadline ~spans_out =
  let spans = Spans.create () in
  let untraced = ref [] and traced = ref [] and observed = ref [] in
  let ledgers = ref [] in
  let obs_spans = ref 0 and obs_dropped = ref 0 in
  repeat ~deadline ~min_runs:1 (fun run ->
      settle ();
      let wall, r = timed (fun () -> attempt (fun () -> engine_run w)) in
      gate tally truth r;
      untraced := wall :: !untraced;
      settle ();
      let stats = Hashtbl.create 8 in
      let root, start = Spans.open_root spans in
      let creator = traced_creator spans ~run ~parent:root stats w in
      let r =
        attempt (fun () -> engine_run ~track_scale:true ~creator w)
      in
      Spans.close_root spans ~id:root ~start ~name:"engine.run" ~run;
      gate tally truth r;
      (match r with
      | Error _ -> ()
      | Ok r ->
        traced := Spans.duration (Spans.find_root spans ~run ~name:"engine.run") :: !traced;
        let replay, rstart = Spans.open_root spans in
        let src = replay_sources spans ~run ~parent:replay w r in
        let ora = replay_oracle spans ~run ~parent:replay w r in
        let jdg = replay_judge spans ~run ~parent:replay w r in
        Spans.close_root spans ~id:replay ~start:rstart ~name:"replay" ~run;
        ledgers := ledger spans ~run ~stats ~r ~replayed:(src, ora, jdg) :: !ledgers);
      settle ();
      let oc = Observe.Collector.create () in
      let wall, r = timed (fun () -> attempt (fun () -> engine_run ~observe:oc w)) in
      gate tally truth r;
      observed := wall :: !observed;
      obs_spans := Observe.Collector.spans_recorded oc;
      obs_dropped := Observe.Collector.dropped oc);
  Option.iter (Spans.write_jsonl spans) spans_out;
  (* Each ledger metric as the median over the traced runs. *)
  let ledger_metrics =
    match !ledgers with
    | [] -> []
    | first :: _ ->
      List.map
        (fun x ->
          let values =
            List.map (fun l -> (List.find (fun y -> y.name = x.name) l).value) !ledgers
          in
          { x with value = median values })
        first
  in
  let base = median !untraced in
  Printf.printf "runs %d, median wall untraced %.6f s, traced %.6f s, observed %.6f s\n"
    (List.length !untraced) base (median !traced) (median !observed);
  ledger_metrics
  @ [
      m "observe.overhead_x" "x" (fdiv (median !observed) base);
      m "observe.spans" "count" (float_of_int !obs_spans);
      m "observe.dropped" "count" (float_of_int !obs_dropped);
      m "trace.overhead_x" "x" (fdiv (median !traced) base);
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of compensate, selfmaint, fanout-chaos");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced runs' spans as JSONL");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload B.Workloads.names) then begin
    prerr_endline
      ("unknown workload " ^ !workload ^ " (known: "
      ^ String.concat ", " B.Workloads.names ^ ")");
    exit 2
  end;
  let w = B.Workloads.build !workload !seed in
  let truth = truth w in
  Printf.printf "workload %s seed %d: %d sources, %d views (%s), %d updates\n"
    w.name !seed (List.length w.sites) (List.length w.views)
    (String.concat ", "
       (List.sort_uniq String.compare (List.map snd (Core.Catalog.algorithms w.entries))))
    (List.length w.updates);
  let tally = { checked = 0; failed = 0 } in
  let deadline = now () +. !seconds in
  (if !trace = 0 then begin
     let metrics, printed =
       end_to_end ~name:!workload ~seed:!seed ~truth ~tally ~deadline
     in
     print_result ~tally ~printed metrics
   end
   else
     print_result ~tally
       (per_layer ~w ~truth ~tally ~deadline
          ~spans_out:(if !spans_out = "" then None else Some !spans_out)));
  exit (if tally.failed = 0 then 0 else 1)
