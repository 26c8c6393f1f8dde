module R = Relational

(* Minimal JSON emission — just enough to ship run results to external
   tooling without new dependencies. *)

let str s = "\"" ^ Observe.Span.escape s ^ "\""

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let value = function
  | R.Value.Int n -> string_of_int n
  | R.Value.Float f -> Printf.sprintf "%.17g" f
  | R.Value.Bool b -> string_of_bool b
  | R.Value.Str s -> str s

let tuple t = arr (List.map value (R.Tuple.to_list t))

let bag b =
  arr
    (List.map
       (fun (t, n) -> obj [ ("tuple", tuple t); ("count", string_of_int n) ])
       (R.Bag.to_counted_list b))

let update (u : R.Update.t) =
  obj
    [
      ("seq", string_of_int u.R.Update.seq);
      ( "kind",
        str (match u.R.Update.kind with
             | R.Update.Insert -> "insert"
             | R.Update.Delete -> "delete") );
      ("relation", str u.R.Update.rel);
      ("tuple", tuple u.R.Update.tuple);
    ]

let num f =
  (* %.17g round-trips every float and stays locale-independent. *)
  Printf.sprintf "%.17g" f

let histogram (h : Metrics.histogram) =
  obj
    [
      ("samples", string_of_int h.Metrics.samples);
      ("sum", string_of_int h.Metrics.sum);
      ("max", string_of_int h.Metrics.hmax);
      ("mean", num (Metrics.hist_mean h));
      ( "buckets",
        arr (Array.to_list (Array.map string_of_int h.Metrics.buckets)) );
    ]

let staleness_gauge (s : Metrics.staleness_gauge) =
  obj
    [
      ("samples", string_of_int s.Metrics.stale_samples);
      ("max", string_of_int s.Metrics.stale_max);
      ("mean", num s.Metrics.stale_mean);
      ("final", string_of_int s.Metrics.stale_final);
      ("quiesce_max", string_of_int s.Metrics.stale_quiesce_max);
    ]

let observe (o : Metrics.observe) =
  obj
    [
      ("spans", string_of_int o.Metrics.spans);
      ("span_dropped", string_of_int o.Metrics.span_dropped);
      ("span_forced", string_of_int o.Metrics.span_forced);
      ("gauges", string_of_int o.Metrics.gauges);
      ("compensations", string_of_int o.Metrics.compensations);
      ("collect_installs", string_of_int o.Metrics.collect_installs);
      ("collect_depth_max", string_of_int o.Metrics.collect_depth_max);
      ("uqs_residency", histogram o.Metrics.uqs_residency);
      ( "edge_latency",
        obj (List.map (fun (name, h) -> (name, histogram h)) o.Metrics.edge_latency) );
      ( "staleness",
        obj
          (List.map
             (fun (name, s) -> (name, staleness_gauge s))
             o.Metrics.staleness) );
    ]

let shared (s : Metrics.shared) =
  obj
    [
      ("evaluated", string_of_int s.Metrics.shared_evaluated);
      ("hits", string_of_int s.Metrics.shared_hits);
      ("fanout", string_of_int s.Metrics.shared_fanout);
    ]

let selfmaint (s : Metrics.selfmaint) =
  obj
    [
      ("self", string_of_int s.Metrics.sm_self);
      ("aux", string_of_int s.Metrics.sm_aux);
      ("fallback", string_of_int s.Metrics.sm_fallback);
      ("aux_views", string_of_int s.Metrics.sm_aux_views);
      ("aux_tuples", string_of_int s.Metrics.sm_aux_tuples);
      ("aux_bytes", string_of_int s.Metrics.sm_aux_bytes);
    ]

let evolution (e : Metrics.evolution) =
  obj
    [
      ("ddl_applied", string_of_int e.Metrics.ddl_applied);
      ("views_rebuilt", string_of_int e.Metrics.views_rebuilt);
      ("refresh_queries", string_of_int e.Metrics.refresh_queries);
      ("stale_answers", string_of_int e.Metrics.stale_answers);
      ("retired_answers", string_of_int e.Metrics.retired_answers);
      ("win_pruned_terms", string_of_int e.Metrics.win_pruned_terms);
      ("win_local_answers", string_of_int e.Metrics.win_local_answers);
      ("win_aged_partitions", string_of_int e.Metrics.win_aged_partitions);
    ]

let scale (s : Metrics.scale) =
  obj
    [
      ("inflight_max", string_of_int s.Metrics.inflight_max);
      ("coalesced_notes", string_of_int s.Metrics.coalesced_notes);
      ("coalesced_batches", string_of_int s.Metrics.coalesced_batches);
      ("active_max", string_of_int s.Metrics.active_max);
    ]

(* The "observe", "shared", "scale" and "selfmaint" fields appear only on
   runs that enabled them, so default exports — the golden traces among
   them — stay byte-identical. *)
let metrics (m : Metrics.t) =
  obj
    ([
       ("updates", string_of_int m.Metrics.updates);
       ("messages", string_of_int (Metrics.messages m));
       ("queries_sent", string_of_int m.Metrics.queries_sent);
       ("answers_received", string_of_int m.Metrics.answers_received);
       ("answer_tuples", string_of_int m.Metrics.answer_tuples);
       ("answer_bytes", string_of_int m.Metrics.answer_bytes);
       ("query_bytes", string_of_int m.Metrics.query_bytes);
       ("source_io", string_of_int m.Metrics.source_io);
       ("steps", string_of_int m.Metrics.steps);
     ]
    @ (match m.Metrics.shared with
      | None -> []
      | Some s -> [ ("shared", shared s) ])
    @ (match m.Metrics.scale with
      | None -> []
      | Some s -> [ ("scale", scale s) ])
    @ (match m.Metrics.selfmaint with
      | None -> []
      | Some s -> [ ("selfmaint", selfmaint s) ])
    @ (match m.Metrics.evolution with
      | None -> []
      | Some e -> [ ("evolution", evolution e) ])
    @ match m.Metrics.observe with
      | None -> []
      | Some o -> [ ("observe", observe o) ])

let report (r : Consistency.report) =
  obj
    [
      ("convergent", string_of_bool r.Consistency.convergent);
      ("weakly_consistent", string_of_bool r.Consistency.weakly_consistent);
      ("consistent", string_of_bool r.Consistency.consistent);
      ("strongly_consistent", string_of_bool r.Consistency.strongly_consistent);
      ("complete", string_of_bool r.Consistency.complete);
      ("strongest", str (Consistency.strongest_label r));
    ]

let trace_entry = function
  | Trace.Source_update { updates; _ } ->
    obj [ ("event", str "source_update"); ("updates", arr (List.map update updates)) ]
  | Trace.Source_answer { gid; answer; cost } ->
    obj
      [
        ("event", str "source_answer");
        ("query", string_of_int gid);
        ("tuples", string_of_int (R.Bag.cardinality answer));
        ("io", string_of_int cost.Storage.Cost.io);
      ]
  | Trace.Warehouse_note { updates; queries; installs } ->
    obj
      [
        ("event", str "warehouse_update");
        ("updates", arr (List.map update updates));
        ("queries_sent", arr (List.map (fun (gid, _) -> string_of_int gid) queries));
        ("installs", string_of_int (List.length installs));
      ]
  | Trace.Warehouse_answer { gid; installs } ->
    obj
      [
        ("event", str "warehouse_answer");
        ("query", string_of_int gid);
        ("installs", string_of_int (List.length installs));
      ]
  | Trace.Quiesce_probe { queries; _ } ->
    obj
      [
        ("event", str "quiesce");
        ("queries_sent", arr (List.map (fun (gid, _) -> string_of_int gid) queries));
      ]
  | Trace.Source_ddl { ddl; _ } ->
    obj
      [
        ("event", str "source_ddl");
        ("ddl", str (R.Update.ddl_to_string ddl));
      ]
  | Trace.Warehouse_ddl { ddl; rebuilt; queries; installs } ->
    obj
      [
        ("event", str "warehouse_ddl");
        ("ddl", str (R.Update.ddl_to_string ddl));
        ("rebuilt", arr (List.map str rebuilt));
        ("queries_sent", arr (List.map (fun (gid, _) -> string_of_int gid) queries));
        ("installs", string_of_int (List.length installs));
      ]

(* Per-view final state, source truth and consistency verdict. *)
let views (r : Engine.result) =
  obj
    (List.map
       (fun (name, mv) ->
         ( name,
           obj
             [
               ("final", bag mv);
               ( "source_truth",
                 bag (List.assoc name r.Engine.final_source_views) );
               ("report", report (List.assoc name r.Engine.reports));
             ] ))
       r.Engine.final_mvs)

let result (r : Engine.result) =
  obj
    [
      ("metrics", metrics r.Engine.metrics);
      ("views", views r);
      ("trace", arr (List.map trace_entry (Trace.entries r.Engine.trace)));
    ]
