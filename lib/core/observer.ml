module R = Relational
module C = Observe.Collector
module S = Observe.Span

type event = Pick of Scheduler.event | Tick | Probe

type effects = {
  edge : int;
  entry : Trace.entry option;
  shipped : (int * int) list;
  owner : (string * string) option;
}

let no_effects = { edge = -1; entry = None; shipped = []; owner = None }

type per_view = {
  mutable last_match : int;  (* clock of the last oracle match *)
  mutable sum : int;
  mutable max : int;
  mutable quiesce_max : int;
  mutable collect_span : int option;  (* open Collect_install span *)
  mutable collect_depth : int;  (* answers currently parked *)
}

(* A duplicate delivered by a faulty edge finds its span already closed
   and is ignored; messages lost forever are force-closed by [finish]. *)
type t = {
  oc : C.t;
  sites : string array;
  views : string array;
  oracle : int -> R.Bag.t;
  warehouse : Warehouse.t;
  per_view : per_view array;  (* in [views] order *)
  by_name : (string, per_view) Hashtbl.t;
  note_spans : (int * int, int) Hashtbl.t;  (* (site, first seq) -> span *)
  query_spans : (int, int) Hashtbl.t;  (* gid -> span *)
  answer_spans : (int, int) Hashtbl.t;  (* gid -> span *)
  edge_hist : Metrics.histogram array;  (* per site, message transit *)
  uqs_hist : Metrics.histogram;  (* query ship -> answer processed *)
  mutable samples : int;  (* staleness samples, each over every view *)
  mutable compensations : int;
  mutable collect_installs : int;
  mutable collect_depth_max : int;
}

let create oc ~sites ~views ~oracle warehouse =
  let fresh _ =
    { last_match = 0; sum = 0; max = 0; quiesce_max = 0; collect_span = None;
      collect_depth = 0 }
  in
  let per_view = Array.map fresh views and by_name = Hashtbl.create 16 in
  Array.iteri (fun vi name -> Hashtbl.replace by_name name per_view.(vi)) views;
  { oc; sites; views; oracle; warehouse; per_view; by_name;
    note_spans = Hashtbl.create 64; query_spans = Hashtbl.create 64;
    answer_spans = Hashtbl.create 64; uqs_hist = Metrics.hist_create ();
    edge_hist = Array.map (fun _ -> Metrics.hist_create ()) sites;
    samples = 0; compensations = 0; collect_installs = 0;
    collect_depth_max = 0 }

(* Close the span an in-flight message opened, matched by its protocol
   id, and add its duration to [hist]. *)
let close_matched o spans key hist t =
  match Hashtbl.find_opt spans key with
  | None -> ()
  | Some sp -> (
    Hashtbl.remove spans key;
    match C.close_span o.oc sp ~now:t with
    | Some sp -> Metrics.hist_add hist (S.duration sp)
    | None -> ())

(* The view/algorithm labels of a query gid while the warehouse still
   routes it. *)
let labels o gid =
  Option.value ~default:("", "") (Warehouse.gid_view o.warehouse gid)

(* Open a span over query [gid]'s message, keyed by the gid in [spans]. *)
let open_gid o spans kind ~site gid t =
  let view, algo = labels o gid in
  Hashtbl.replace spans gid
    (C.open_span o.oc kind ~view ~algo ~site ~ids:[ gid ] ~now:t ())

(* The per-view staleness gauge: ticks since the warehouse's
   materialization last equalled the oracle state. [quiesce] marks
   drained-graph probes, whose maximum is the strong-consistency
   witness. The warehouse hosts the views in [views] order. *)
let sample_staleness o ~quiesce t =
  o.samples <- o.samples + 1;
  List.iteri
    (fun vi (_, mv) ->
      let ov = o.per_view.(vi) in
      if R.Bag.equal mv (o.oracle vi) then ov.last_match <- t;
      let stale = t - ov.last_match in
      ov.sum <- ov.sum + stale;
      if stale > ov.max then ov.max <- stale;
      if quiesce && stale > ov.quiesce_max then ov.quiesce_max <- stale;
      C.gauge o.oc ~name:"staleness" ~key:o.views.(vi) ~now:t ~value:stale)
    (Warehouse.mvs o.warehouse)

let step o ~now:t ev fx =
  (* 1. The event's own message: a source's apply and its note's flight,
     an answer's flight, or an arriving note, which closes its flight
     and offsets every query still outstanding (Section 4's
     compensation). *)
  (match fx.entry with
  | Some (Trace.Source_update { updates = { R.Update.seq; _ } :: _ as us; _ })
    ->
    let site = o.sites.(fx.edge) in
    let ids = List.map (fun u -> u.R.Update.seq) us in
    C.instant o.oc S.Source_apply ~site ~ids ~now:t ();
    Hashtbl.replace o.note_spans (fx.edge, seq)
      (C.open_span o.oc S.Update_note ~site ~ids ~now:t ())
  | Some (Trace.Source_answer { gid; _ }) ->
    open_gid o o.answer_spans S.Answer_arrival ~site:o.sites.(fx.edge) gid t
  | Some (Trace.Warehouse_note { updates = { R.Update.seq; _ } :: _; _ }) ->
    close_matched o o.note_spans (fx.edge, seq) o.edge_hist.(fx.edge) t;
    List.iter
      (fun gid ->
        o.compensations <- o.compensations + 1;
        let view, algo = labels o gid in
        C.instant o.oc S.Compensation ~view ~algo ~site:o.sites.(fx.edge)
          ~ids:[ gid; seq ] ~now:t ())
      (List.sort Int.compare
         (Hashtbl.fold (fun gid _ acc -> gid :: acc) o.query_spans []))
  | Some (Trace.Warehouse_answer { gid; _ }) ->
    close_matched o o.answer_spans gid o.edge_hist.(fx.edge) t
  | _ -> ());
  (* 2. Each shipped query opens its round trip: its residency in the
     algorithm's unanswered-query set. *)
  List.iter
    (fun (gid, i) ->
      open_gid o o.query_spans S.Query_send ~site:o.sites.(i) gid t)
    fx.shipped;
  (* 3. A processed answer ends its query's residency. *)
  (match fx.entry with
  | Some (Trace.Warehouse_answer { gid; _ }) ->
    close_matched o o.query_spans gid o.uqs_hist t
  | _ -> ());
  (* 4. Installs flush a view's parked answers. *)
  let installs = Option.fold ~none:[] ~some:Trace.installs_of fx.entry in
  List.iter
    (fun (name, states) ->
      o.collect_installs <- o.collect_installs + List.length states;
      match Hashtbl.find_opt o.by_name name with
      | Some ({ collect_span = Some sp; _ } as ov) ->
        ignore (C.close_span o.oc sp ~now:t);
        ov.collect_span <- None;
        ov.collect_depth <- 0
      | _ -> ())
    installs;
  (* 5. An answer whose view installed nothing parks in COLLECT. *)
  (match fx.owner with
  | Some (name, algo) when not (List.mem_assoc name installs) ->
    Option.iter
      (fun ov ->
        ov.collect_depth <- ov.collect_depth + 1;
        if ov.collect_depth > o.collect_depth_max then
          o.collect_depth_max <- ov.collect_depth;
        if ov.collect_span = None then
          ov.collect_span <-
            Some
              (C.open_span o.oc S.Collect_install ~view:name ~algo
                 ~site:"warehouse" ~ids:[] ~now:t ()))
      (Hashtbl.find_opt o.by_name name)
  | _ -> ());
  (* 6. and 7. A probe's instant; staleness after source events,
     warehouse receives (a misrouted one too) and probes. *)
  match ev with
  | Probe ->
    C.instant o.oc S.Quiescence ~site:"warehouse" ~ids:[] ~now:t ();
    sample_staleness o ~quiesce:true t
  | Pick (Scheduler.Apply | Scheduler.Site_warehouse _) ->
    sample_staleness o ~quiesce:false t
  | Pick (Scheduler.Site_source _) | Tick -> ()

let finish o ~now =
  C.close_all o.oc ~now;
  { Metrics.spans = C.spans_recorded o.oc; span_dropped = C.dropped o.oc;
    span_forced = C.forced_closes o.oc; gauges = C.gauges_recorded o.oc;
    compensations = o.compensations; collect_installs = o.collect_installs;
    collect_depth_max = o.collect_depth_max; uqs_residency = o.uqs_hist;
    edge_latency =
      Array.to_list (Array.mapi (fun i h -> (o.sites.(i), h)) o.edge_hist);
    (* The drain probe sampled last, at [now]. *)
    staleness =
      Array.to_list
        (Array.mapi
           (fun vi ov ->
             ( o.views.(vi),
               { Metrics.stale_samples = o.samples; stale_max = ov.max;
                 stale_mean =
                   (if o.samples = 0 then 0.0
                    else float_of_int ov.sum /. float_of_int o.samples);
                 stale_final = now - ov.last_match;
                 stale_quiesce_max = ov.quiesce_max } ))
           o.per_view) }
