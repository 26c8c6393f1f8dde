type delivery = {
  ticks : int;
  retransmits : int;
  dups_dropped : int;
  acks : int;
  msgs_dropped : int;
  msgs_duplicated : int;
  delivered : int;
  latency_total : int;
  latency_max : int;
  wire_messages : int;
  wire_bytes : int;
}

(* Log2-bucketed histogram of small non-negative integer durations
   (logical-clock ticks): bucket 0 holds value 0, bucket i holds values
   in [2^(i-1), 2^i). Mutable because the engine accumulates into it on
   the hot path; the record is never shared across runs. *)
type histogram = {
  buckets : int array;
  mutable samples : int;
  mutable sum : int;
  mutable hmax : int;
}

let hist_buckets = 16

let hist_create () =
  { buckets = Array.make hist_buckets 0; samples = 0; sum = 0; hmax = 0 }

let hist_bucket v =
  if v <= 0 then 0
  else
    let rec go i b = if v < b || i = hist_buckets - 1 then i else go (i + 1) (b * 2) in
    go 1 2

let hist_add h v =
  let v = max 0 v in
  h.buckets.(hist_bucket v) <- h.buckets.(hist_bucket v) + 1;
  h.samples <- h.samples + 1;
  h.sum <- h.sum + v;
  if v > h.hmax then h.hmax <- v

let hist_mean h =
  if h.samples = 0 then 0.0 else float_of_int h.sum /. float_of_int h.samples

(* Nearest-rank quantile, resolved to the containing bucket's upper
   bound (2^b - 1), capped by the true maximum. Exact for q = 1.0 and for
   samples in bucket 0; elsewhere conservative by at most the bucket
   width — all that log2 buckets can promise. *)
let hist_quantile h q =
  if h.samples = 0 then 0
  else begin
    let rank =
      max 1 (min h.samples (int_of_float (ceil (q *. float_of_int h.samples))))
    in
    let rec go i seen =
      let seen = seen + h.buckets.(i) in
      if seen >= rank || i = hist_buckets - 1 then i else go (i + 1) seen
    in
    match go 0 0 with
    | 0 -> 0
    | b -> min h.hmax ((1 lsl b) - 1)
  end

(* Per-view staleness summary: the gauge series itself (logical ticks
   since the warehouse view last matched the centralized oracle state)
   lives in the observe collector; these are its run-level aggregates. *)
type staleness_gauge = {
  stale_samples : int;
  stale_max : int;
  stale_mean : float;
  stale_final : int;  (* 0 exactly when the run converged *)
  stale_quiesce_max : int;
      (* max over quiescence probes; 0 for the ECA family, which is
         exactly the paper's "COLLECT installs once UQS = ∅" guarantee *)
}

(* Derived gauges of the observability layer — present only when a run
   was executed with span collection enabled, so default output (pp,
   JSON) is byte-identical for unobserved runs. *)
type observe = {
  spans : int;  (* spans closed and recorded *)
  span_dropped : int;  (* ring-buffer overflow *)
  span_forced : int;  (* force-closed at end of run (lost frames) *)
  gauges : int;
  compensations : int;
  collect_installs : int;
  collect_depth_max : int;
  uqs_residency : histogram;  (* query ship -> answer processed, per gid *)
  edge_latency : (string * histogram) list;  (* per edge, message transit *)
  staleness : (string * staleness_gauge) list;  (* per view *)
}

(* Shared-delta (MQO) maintenance counters — present only when a run
   enabled query sharing across the hosted views, so default output
   stays byte-identical to an unshared run. *)
type shared = {
  shared_evaluated : int;  (* shipped queries with >1 subscriber *)
  shared_hits : int;  (* queries deduplicated away by sharing *)
  shared_fanout : int;  (* answer deliveries through shared gids *)
}

(* Scale-out counters — present only when a run asked to track them
   ([Engine.run ~track_scale:true]), so default output stays
   byte-identical. *)
type scale = {
  inflight_max : int;  (* peak undelivered frames on any one edge *)
  coalesced_notes : int;  (* update notes that shipped as part of a batch *)
  coalesced_batches : int;  (* batch notes produced by coalescing *)
  active_max : int;  (* peak simultaneously non-idle edges *)
}

(* Self-maintenance counters — present only when the run hosted at least
   one algorithm reporting them (the ECA-SM rung), so default output
   stays byte-identical. *)
type selfmaint = {
  sm_self : int;  (* updates handled by key-delete or FK derivation *)
  sm_aux : int;  (* updates handled by reading auxiliary views *)
  sm_fallback : int;  (* updates that fell back to the compensating path *)
  sm_aux_views : int;  (* maintained auxiliary views, end of run *)
  sm_aux_tuples : int;  (* their tuples, end of run *)
  sm_aux_bytes : int;  (* their value bytes, end of run *)
}

(* Schema-evolution and windowed-view counters — present only when the
   run fired at least one DDL statement or hosted a windowed view, so
   every other run's output stays byte-identical. *)
type evolution = {
  ddl_applied : int;  (* schema changes executed at the sources *)
  views_rebuilt : int;  (* hosted instances re-initialized *)
  refresh_queries : int;  (* full-view queries shipped by rebuilds *)
  stale_answers : int;  (* queries the sources answered empty as stale *)
  retired_answers : int;  (* tombstone answers absorbed at the warehouse *)
  win_pruned_terms : int;  (* compensation terms pruned as out-of-window *)
  win_local_answers : int;  (* queries answered locally, fully pruned *)
  win_aged_partitions : int;  (* watermark advances summed over views *)
}

type t = {
  updates : int;
  queries_sent : int;
  answers_received : int;
  answer_tuples : int;
  answer_bytes : int;
  query_bytes : int;
  source_io : int;
  steps : int;
  delivery : delivery;
  site_delivery : (string * delivery) list;
  observe : observe option;
  shared : shared option;
  scale : scale option;
  selfmaint : selfmaint option;
  evolution : evolution option;
}

let no_delivery =
  {
    ticks = 0;
    retransmits = 0;
    dups_dropped = 0;
    acks = 0;
    msgs_dropped = 0;
    msgs_duplicated = 0;
    delivered = 0;
    latency_total = 0;
    latency_max = 0;
    wire_messages = 0;
    wire_bytes = 0;
  }

let zero =
  {
    updates = 0;
    queries_sent = 0;
    answers_received = 0;
    answer_tuples = 0;
    answer_bytes = 0;
    query_bytes = 0;
    source_io = 0;
    steps = 0;
    delivery = no_delivery;
    site_delivery = [];
    observe = None;
    shared = None;
    scale = None;
    selfmaint = None;
    evolution = None;
  }

(* Component-wise sum of two edges' counters; [latency_max] is a maximum,
   not a sum. Used to fold per-site transport counters into the global
   delivery block — the global [ticks] is not a sum (one scheduler tick
   advances every edge's clock at once), so callers overwrite it. *)
let add_delivery a b =
  {
    ticks = a.ticks + b.ticks;
    retransmits = a.retransmits + b.retransmits;
    dups_dropped = a.dups_dropped + b.dups_dropped;
    acks = a.acks + b.acks;
    msgs_dropped = a.msgs_dropped + b.msgs_dropped;
    msgs_duplicated = a.msgs_duplicated + b.msgs_duplicated;
    delivered = a.delivered + b.delivered;
    latency_total = a.latency_total + b.latency_total;
    latency_max = max a.latency_max b.latency_max;
    wire_messages = a.wire_messages + b.wire_messages;
    wire_bytes = a.wire_bytes + b.wire_bytes;
  }

(* The paper's M metric: query and answer messages only — update
   notifications are identical across algorithms and excluded. *)
let messages t = t.queries_sent + t.answers_received

(* The paper's B metric: Section 6.2 charges S bytes per answer tuple,
   so B = S * answer_tuples for a given parameter S. *)
let bytes_for ~s t = s * t.answer_tuples

(* Wire totals are metered on every run (they are just the channels'
   physical counters), so a perfect-FIFO run still carries nonzero
   wire_messages/wire_bytes. The transport is only worth printing when a
   fault or the reliability protocol actually did something. *)
let delivery_active d =
  d.ticks <> 0 || d.retransmits <> 0 || d.dups_dropped <> 0 || d.acks <> 0
  || d.msgs_dropped <> 0 || d.msgs_duplicated <> 0

let pp_delivery ppf d =
  Format.fprintf ppf
    "ticks=%d retransmits=%d dups_dropped=%d acks=%d dropped=%d \
     duplicated=%d wire=%d msgs/%d bytes"
    d.ticks d.retransmits d.dups_dropped d.acks d.msgs_dropped
    d.msgs_duplicated d.wire_messages d.wire_bytes

let pp_histogram ppf h =
  Format.fprintf ppf "n=%d mean=%.1f max=%d" h.samples (hist_mean h) h.hmax

let pp_observe ppf o =
  Format.fprintf ppf
    "spans=%d (dropped=%d forced=%d) gauges=%d compensations=%d \
     collect_installs=%d collect_depth_max=%d"
    o.spans o.span_dropped o.span_forced o.gauges o.compensations
    o.collect_installs o.collect_depth_max;
  if o.uqs_residency.samples > 0 then
    Format.fprintf ppf "@.  uqs_residency: %a" pp_histogram o.uqs_residency;
  List.iter
    (fun (name, h) ->
      if h.samples > 0 then
        Format.fprintf ppf "@.  latency %s: %a" name pp_histogram h)
    o.edge_latency;
  List.iter
    (fun (view, s) ->
      Format.fprintf ppf
        "@.  staleness %s: n=%d mean=%.1f max=%d final=%d quiesce_max=%d" view
        s.stale_samples s.stale_mean s.stale_max s.stale_final
        s.stale_quiesce_max)
    o.staleness

let pp ppf t =
  Format.fprintf ppf
    "updates=%d M=%d (q=%d a=%d) answer_tuples=%d answer_bytes=%d \
     query_bytes=%d IO=%d steps=%d"
    t.updates (messages t) t.queries_sent t.answers_received t.answer_tuples
    t.answer_bytes t.query_bytes t.source_io t.steps;
  if delivery_active t.delivery then
    Format.fprintf ppf " [%a]" pp_delivery t.delivery;
  (* Per-site lines only when there is more than one edge — single-source
     runs print exactly as they always have. *)
  (match t.site_delivery with
  | [] | [ _ ] -> ()
  | sites ->
    List.iter
      (fun (name, d) ->
        if delivery_active d then
          Format.fprintf ppf "@.  %s: [%a]" name pp_delivery d)
      sites);
  (match t.shared with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "@.shared: evaluated=%d hits=%d fanout=%d" s.shared_evaluated
      s.shared_hits s.shared_fanout);
  (match t.scale with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "@.scale: inflight_max=%d coalesced=%d notes/%d batches active_max=%d"
      s.inflight_max s.coalesced_notes s.coalesced_batches s.active_max);
  (match t.selfmaint with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "@.selfmaint: self=%d aux=%d fallback=%d aux_views=%d aux_tuples=%d \
       aux_bytes=%d"
      s.sm_self s.sm_aux s.sm_fallback s.sm_aux_views s.sm_aux_tuples
      s.sm_aux_bytes);
  (match t.evolution with
  | None -> ()
  | Some e ->
    Format.fprintf ppf
      "@.evolution: ddl=%d rebuilt=%d refresh_q=%d stale=%d retired=%d \
       win=%d pruned/%d local/%d aged"
      e.ddl_applied e.views_rebuilt e.refresh_queries e.stale_answers
      e.retired_answers e.win_pruned_terms e.win_local_answers
      e.win_aged_partitions);
  match t.observe with
  | None -> ()
  | Some o -> Format.fprintf ppf "@.observe: %a" pp_observe o
