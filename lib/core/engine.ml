module R = Relational

exception Engine_error of string

let error fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

let src = Logs.Src.create "vmw.engine" ~doc:"site-graph simulation engine"

module Log = (val Logs.src_log src : Logs.LOG)

type site_spec = {
  name : string;
  db : R.Db.t;
  catalog : Storage.Catalog.t option;
  fault : Messaging.Fault.profile;
  fault_seed : int;
  reliable : bool;
}

let site ?catalog ?(fault = Messaging.Fault.none) ?(fault_seed = 0)
    ?(reliable = false) ~name db =
  { name; db; catalog; fault; fault_seed; reliable }

type result = {
  trace : Trace.t;
  metrics : Metrics.t;
  reports : (string * Consistency.report) list;
  final_mvs : (string * R.Bag.t) list;
  final_source_views : (string * R.Bag.t) list;
  negative_installs : (string * R.Bag.t) list;
  sources : (string * Source_site.Source.t) list;
  warehouse_anomalies : string list;
}

(* One node of the running site graph: a source plus its private edge to
   the warehouse (a channel pair with its own fault profile / reliability
   sublayer / retransmit clock). *)
type site_state = {
  spec_name : string;
  source : Source_site.Source.t;
  net : Messaging.Network.t;
  mutable ticks : int;  (* transport-clock advances on this edge *)
}

(* Mutable bookkeeping of the observability layer, live only when a
   collector was passed in. Spans over in-flight messages are matched by
   their protocol ids (update seq for notes, query gid for queries and
   answers); duplicates delivered by a faulty edge find their span
   already closed and are ignored, and messages lost forever are
   force-closed at end of run. *)
type obs_per_view = {
  mutable ov_last_match : int;  (* clock of the last oracle match *)
  mutable ov_samples : int;
  mutable ov_sum : int;
  mutable ov_max : int;
  mutable ov_final : int;
  mutable ov_quiesce_max : int;
  mutable ov_collect_span : int option;  (* open Collect_install span *)
  mutable ov_collect_depth : int;  (* answers currently parked *)
}

type obs_state = {
  oc : Observe.Collector.t;
  note_spans : (int * int, int) Hashtbl.t;  (* (site, first seq) -> span *)
  query_spans : (int, int) Hashtbl.t;  (* gid -> span *)
  answer_spans : (int, int) Hashtbl.t;  (* gid -> span *)
  per_view : obs_per_view array;  (* in [views] order *)
  edge_hist : Metrics.histogram array;  (* per site, message transit *)
  uqs_hist : Metrics.histogram;  (* query ship -> answer processed *)
  mutable compensations : int;
  mutable collect_installs : int;
  mutable collect_depth_max : int;
}

(* Engine steps after which a run is declared runaway. *)
let max_steps = 2_000_000

let run ?(schedule = Scheduler.Best_case) ?(rv_period = 1) ?(batch_size = 1)
    ?local_literal_eval ?(allow_cross_source = false) ?observe
    ?(share_deltas = false) ?(coalesce = false) ?(track_scale = false)
    ?(evolution = []) ?(windows = []) ~creator ~sites:specs ~views ~updates () =
  if batch_size < 1 then raise (Engine_error "batch_size must be at least 1");
  if rv_period < 1 then raise (Engine_error "rv_period must be at least 1");
  if specs = [] then
    raise (Engine_error "a site graph needs at least one source");
  (* Reports, final states and the judge all key on the view name. *)
  ignore
    (List.fold_left
       (fun seen (v : R.Viewdef.t) ->
         let name = v.R.Viewdef.name in
         if List.mem name seen then error "view %s is defined twice" name;
         name :: seen)
       [] views);
  let sched =
    try Scheduler.create schedule
    with Scheduler.Schedule_error msg -> raise (Engine_error msg)
  in
  let sites =
    Array.of_list
      (List.map
         (fun s ->
           {
             spec_name = s.name;
             source = Source_site.Source.create ?catalog:s.catalog s.db;
             net =
               Messaging.Network.create ~name:s.name ~fault:s.fault
                 ~seed:s.fault_seed ~reliable:s.reliable ();
             ticks = 0;
           })
         specs)
  in
  let n = Array.length sites in
  (* Every relation belongs to exactly one source — the paper's federated
     setting assumes autonomous sources with disjoint schemas. *)
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun i st ->
      List.iter
        (fun rel ->
          if Hashtbl.mem owner rel then
            error "relation %s is owned by two sources" rel;
          Hashtbl.replace owner rel i)
        (R.Db.relation_names (Source_site.Source.db st.source)))
    sites;
  (* The one owner lookup: the site an update, schema change or query on
     [rel] routes to. With a single source every relation routes to it. *)
  let site_of rel =
    if n = 1 then 0
    else
      match Hashtbl.find_opt owner rel with
      | Some i -> i
      | None -> error "no source owns relation %s" rel
  in
  (* Bind each view to the unique source owning all its relations. With a
     single source every view trivially binds to it — including views
     whose queries mention no base relation at all, preserving the
     historical single-source driver's leniency. *)
  let view_site =
    List.map
      (fun (v : R.Viewdef.t) ->
        if n = 1 then (v.R.Viewdef.name, Some 0)
        else
          let site_indices =
            List.sort_uniq Int.compare
              (List.map
                 (fun rel ->
                   try site_of rel
                   with Engine_error _ ->
                     error "view %s uses unowned relation %s"
                       v.R.Viewdef.name rel)
                 (R.Viewdef.relation_names v))
          in
          match site_indices with
          | [ i ] -> (v.R.Viewdef.name, Some i)
          | _ when allow_cross_source -> (v.R.Viewdef.name, None)
          | _ ->
            error
              "view %s spans several sources; cross-source views need \
               coordinated compensation and are future work here as in the \
               paper (opt into the demonstrably unsafe fetch-join strategy \
               with ~allow_cross_source)"
              v.R.Viewdef.name)
      views
  in
  let merged_db () =
    Array.fold_left
      (fun db st ->
        let sdb = Source_site.Source.db st.source in
        List.fold_left
          (fun db rel ->
            R.Db.add_relation ~contents:(R.Db.contents sdb rel) db
              (R.Db.schema sdb rel))
          db (R.Db.relation_names sdb))
      R.Db.empty sites
  in
  let configs =
    List.map2
      (fun (v : R.Viewdef.t) (_, where) ->
        let db =
          match where with
          | Some i -> Source_site.Source.db sites.(i).source
          | None -> merged_db ()
        in
        Algorithm.Config.of_db ~rv_period ?local_literal_eval v db)
      views view_site
  in
  (* Windowed views: one Window.state drives the warehouse-side wrapper
     (watermark advanced by *delivered* notifications) and an independent
     one windows the centralized oracle (watermark advanced at source
     execution). Under reliable delivery the two watermarks agree at
     every quiescent point; under raw faulty channels they may diverge —
     exactly the divergence the consistency checkers then witness. *)
  let wh_win = Hashtbl.create 8 in
  let oracle_win = Hashtbl.create 8 in
  List.iter
    (fun (name, spec) ->
      match
        List.find_opt
          (fun (v : R.Viewdef.t) -> String.equal v.R.Viewdef.name name)
          views
      with
      | None -> error "window declared for unknown view %s" name
      | Some v ->
        Hashtbl.replace wh_win name (Window.make spec v);
        Hashtbl.replace oracle_win name (Window.make spec v))
    windows;
  let creator cfg =
    let inst = creator cfg in
    match
      Hashtbl.find_opt wh_win cfg.Algorithm.Config.view.R.Viewdef.name
    with
    | None -> inst
    | Some st -> Window.wrap st inst
  in
  let warehouse = Warehouse.create ~share:share_deltas ~creator configs in
  (* With DDLs in the stream, a faulty channel can deliver a notification
     before the Ddl_note explaining its new shape — arm the warehouse's
     schema screen up front, not at the first (possibly late) note. *)
  if evolution <> [] then Warehouse.enable_ddl_guard warehouse;
  (* Oracle state: the current source-view contents, one slot per view in
     [views] order, advanced as updates execute at the sources. A
     site-bound view is judged against its owning source's state; a
     cross-source view against the merged global state. All per-view
     bookkeeping is indexed — a wide catalog over many sources pays only
     for the views an event actually touches, never an O(views) assoc
     scan per event. *)
  let views_arr = Array.of_list views in
  let nviews = Array.length views_arr in
  let vname = Array.map (fun (v : R.Viewdef.t) -> v.R.Viewdef.name) views_arr in
  let vsite = Array.of_list (List.map snd view_site) in
  (* A view's index by name; the first view of a name wins. *)
  let name_to_idx = Hashtbl.create (max 16 nviews) in
  for vi = nviews - 1 downto 0 do
    Hashtbl.replace name_to_idx vname.(vi) vi
  done;
  (* Per-site view index lists (ascending = [views] order) plus the
     cross-source views, and their merge: exactly the views an update at
     site [i] can affect, visited in catalog order. *)
  let site_views = Array.make n [] in
  let cross_views = ref [] in
  for vi = nviews - 1 downto 0 do
    match vsite.(vi) with
    | Some i -> site_views.(i) <- vi :: site_views.(i)
    | None -> cross_views := vi :: !cross_views
  done;
  let affected_idx =
    Array.map (fun svs -> List.merge Int.compare svs !cross_views) site_views
  in
  let snapshot_view vi =
    let v = views_arr.(vi) in
    match vsite.(vi) with
    | Some i -> R.Viewdef.eval (Source_site.Source.db sites.(i).source) v
    | None -> R.Viewdef.eval (merged_db ()) v
  in
  (* The first snapshot is each view's [init_mv]: the configs evaluated it
     over the same initial state, and sharing the object lets the judge's
     first confirmation start from physically equal states. *)
  let snap =
    Array.of_list (List.map (fun c -> c.Algorithm.Config.init_mv) configs)
  in
  (* The oracle's windowed lens: the snapshot array stays unwindowed (the
     delta programs maintain the full view), and the window filter is
     applied at every reporting boundary — trace states, staleness
     samples, final states — so windowed runs are judged
     windowed-vs-windowed. *)
  let owin vi = Hashtbl.find_opt oracle_win vname.(vi) in
  Array.iteri
    (fun vi b ->
      match owin vi with Some st -> Window.init_watermark st b | None -> ())
    snap;
  let oracle_view vi =
    match owin vi with
    | Some st -> Window.filter st snap.(vi)
    | None -> snap.(vi)
  in
  let oracle_views () =
    List.init nviews (fun vi -> (vname.(vi), oracle_view vi))
  in
  let trace = Trace.create ~initial_views:(oracle_views ()) in
  (* Staged delta programs for the oracle advance, built per view on
     first use — and invalidated individually when a schema change
     rewrites a view mid-stream. *)
  let staged_programs = Array.make nviews None in
  let staged vi =
    match staged_programs.(vi) with
    | Some p -> p
    | None ->
      let p = R.Delta_program.stage views_arr.(vi) in
      staged_programs.(vi) <- Some p;
      p
  in
  (* Cross-source views are an opt-in anomaly demonstration, not a
     performance path: recompute them from the merged state. *)
  let advance_cross () =
    List.iter (fun vi -> snap.(vi) <- snapshot_view vi) !cross_views
  in
  (* Oracle advance over one update-class run (same relation and kind),
     already executed at site [i]. Every delta term binds the updated
     relation's slot to literals — it never reads that relation from the
     database — and the run touches no other relation, so each update's
     delta is the same whether evaluated mid-run or at the end; summing
     them through one [apply_batch] pass gives the identical final
     snapshot a per-update loop reaches. *)
  let advance_snapshots_run i (us : R.Update.t list) =
    match us with
    | [] -> ()
    | first :: _ ->
      let tuples = List.map (fun (u : R.Update.t) -> u.R.Update.tuple) us in
      let db = Source_site.Source.db sites.(i).source in
      List.iter
        (fun vi ->
          match R.Delta_program.of_update (staged vi) first with
          | None -> ()
          | Some prog ->
            snap.(vi) <- R.Delta_program.apply_batch ~into:snap.(vi) prog db tuples)
        site_views.(i);
      advance_cross ()
  in
  (* The views whose oracle state an update at site [i] can change — the
     site's own views plus every cross-source view. Only these appear in
     the trace entry, so per-source state sequences stay per-source. *)
  let affected_views i =
    List.map (fun vi -> (vname.(vi), oracle_view vi)) affected_idx.(i)
  in
  (* The workload item stream: DML updates woven with the scheduled
     schema changes. A change at position [p] fires after [p] updates
     have been applied; with no [evolution] the stream is exactly the
     update list and the run is byte-identical to a pre-evolution one. *)
  let items =
    let rec weave applied ups evo acc =
      match (evo, ups) with
      | (p, d) :: evo', _ when p <= applied ->
        weave applied ups evo' (`D d :: acc)
      | _, u :: ups' -> weave (applied + 1) ups' evo (`U u :: acc)
      | _, [] -> List.rev_append acc (List.map (fun (_, d) -> `D d) evo)
    in
    weave 0 updates
      (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) evolution)
      []
  in
  let site_of_item = function
    | `U (u : R.Update.t) -> site_of u.R.Update.rel
    | `D d -> site_of (R.Update.ddl_rel d)
  in
  let pending = ref items in
  let next_seq = ref 0 in
  (* The run's counters, folded into one [Metrics.t] when the run ends. *)
  let steps = ref 0 and ticks = ref 0 and executed = ref 0 in
  let queries_sent = ref 0 and query_bytes = ref 0 and source_io = ref 0 in
  let answers_received = ref 0 and answer_tuples = ref 0 in
  let answer_bytes = ref 0 and ddl_applied = ref 0 in
  let refresh_queries = ref 0 in
  let inflight_max = ref 0 and active_max = ref 0 in
  let coalesced_notes = ref 0 and coalesced_batches = ref 0 in
  (* Incrementally maintained scheduling state: the ready sets the
     scheduler picks from, and the set of non-idle edges the tick branch
     walks. Every edge mutation (send, receive, tick) is followed by a
     [refresh_edge] of exactly the touched edges, so one step costs
     O(active edges), never O(N) — the property that lets this loop
     drive hundreds of sources. *)
  let ready = Scheduler.Ready.create n in
  let active = ref Scheduler.Iset.empty in
  let refresh_edge i =
    let st = sites.(i) in
    Scheduler.Ready.set_source ready i
      (Messaging.Network.can_receive st.net Messaging.Network.To_source);
    Scheduler.Ready.set_warehouse ready i
      (Messaging.Network.can_receive st.net Messaging.Network.To_warehouse);
    let load = Messaging.Network.load st.net in
    Scheduler.Ready.set_load ready i load;
    if load > !inflight_max then inflight_max := load;
    if Messaging.Network.idle st.net then
      active := Scheduler.Iset.remove i !active
    else begin
      active := Scheduler.Iset.add i !active;
      if track_scale then begin
        let c = Scheduler.Iset.cardinal !active in
        if c > !active_max then active_max := c
      end
    end
  in
  let refresh_update () =
    let i = match !pending with [] -> -1 | it :: _ -> site_of_item it in
    Scheduler.Ready.set_update ready (i >= 0);
    Scheduler.Ready.set_update_site ready i
  in
  (* The spans' logical clock: the engine's step counter, bumped once per
     scheduler decision before the event executes — deterministic across
     PAR settings because the loop itself is single-threaded. *)
  let now () = !steps in
  let obs =
    match observe with
    | None -> None
    | Some oc ->
      Some
        {
          oc;
          note_spans = Hashtbl.create 64;
          query_spans = Hashtbl.create 64;
          answer_spans = Hashtbl.create 64;
          per_view =
            Array.init nviews (fun _ ->
                {
                  ov_last_match = 0;
                  ov_samples = 0;
                  ov_sum = 0;
                  ov_max = 0;
                  ov_final = 0;
                  ov_quiesce_max = 0;
                  ov_collect_span = None;
                  ov_collect_depth = 0;
                });
          edge_hist = Array.init n (fun _ -> Metrics.hist_create ());
          uqs_hist = Metrics.hist_create ();
          compensations = 0;
          collect_installs = 0;
          collect_depth_max = 0;
        }
  in
  let with_obs f = match obs with None -> () | Some o -> f o in
  (* Close the span an in-flight message opened, matched by its protocol
     id, and add its duration to [hist]. A duplicate finds the span
     already closed and is ignored. *)
  let close_matched o spans key hist t =
    match Hashtbl.find_opt spans key with
    | None -> ()
    | Some sp -> (
      Hashtbl.remove spans key;
      match Observe.Collector.close_span o.oc sp ~now:t with
      | Some sp -> Metrics.hist_add hist (Observe.Span.duration sp)
      | None -> ())
  in
  (* The view/algorithm labels of a query gid, looked up while the
     warehouse still routes it. *)
  let gid_labels gid =
    Option.value ~default:("", "") (Warehouse.gid_view warehouse gid)
  in
  (* Sample the per-view staleness gauge: ticks since the warehouse's
     materialization last equalled the centralized oracle state. Sampled
     after every state-changing event; [quiesce] marks drained-graph
     probes, whose maximum is the strong-consistency witness. The
     warehouse hosts the views in [views] order. *)
  let sample_staleness ?(quiesce = false) o =
    let t = now () in
    List.iteri
      (fun vi (_, mv) ->
        let ov = o.per_view.(vi) and name = vname.(vi) in
        if R.Bag.equal mv (oracle_view vi) then ov.ov_last_match <- t;
        let stale = t - ov.ov_last_match in
        ov.ov_samples <- ov.ov_samples + 1;
        ov.ov_sum <- ov.ov_sum + stale;
        if stale > ov.ov_max then ov.ov_max <- stale;
        ov.ov_final <- stale;
        if quiesce && stale > ov.ov_quiesce_max then ov.ov_quiesce_max <- stale;
        Observe.Collector.gauge o.oc ~name:"staleness" ~key:name ~now:t
          ~value:stale)
      (Warehouse.mvs warehouse)
  in
  (* An installed view state with net-negative counts witnesses an
     over-deletion anomaly; correct algorithms never produce one. *)
  let negative_installs = ref [] in
  let watch_installs installs =
    List.iter
      (fun (name, states) ->
        List.iter
          (fun mv ->
            if R.Bag.has_negative mv then begin
              Log.warn (fun f ->
                  f "view %s installed a negative state: %s" name
                    (R.Bag.to_string mv));
              negative_installs := (name, mv) :: !negative_installs
            end)
          states)
      installs
  in
  let ship_queries queries =
    List.iter
      (fun (gid, q) ->
        let i =
          if n = 1 then 0
          else
            match R.Query.base_relations q with
            | rel :: _ -> site_of rel
            | [] -> 0  (* all-literal queries can go anywhere; pick the first *)
        in
        let msg = Messaging.Message.Query { id = gid; query = q } in
        Log.debug (fun f -> f "ship %a" Messaging.Message.pp msg);
        incr queries_sent;
        query_bytes := !query_bytes + Messaging.Message.byte_size msg;
        with_obs (fun o ->
            (* Open for the whole round trip: this is the query's
               residency in the algorithm's unanswered-query set. *)
            let view, algo = gid_labels gid in
            let sp =
              Observe.Collector.open_span o.oc Observe.Span.Query_send ~view
                ~algo ~site:sites.(i).spec_name ~ids:[ gid ] ~now:(now ()) ()
            in
            Hashtbl.replace o.query_spans gid sp);
        Messaging.Network.send sites.(i).net Messaging.Network.To_source msg;
        refresh_edge i)
      queries
  in
  (* A schema change at source [i]: apply it to the base relations,
     rewrite the oracle's definitions of every affected view (their delta
     programs are restaged on next use), and notify the warehouse with a
     [Ddl_note] on the owning edge. On a FIFO edge the note precedes
     every later message, so the warehouse always rebuilds before any
     tombstone answer arrives — the order raw faulty channels may
     break. *)
  let source_ddl i (d : R.Update.ddl) =
    (try
       Source_site.Source.execute_ddl sites.(i).source d;
       for vi = 0 to nviews - 1 do
         if R.Evolve.affects views_arr.(vi) d then begin
           views_arr.(vi) <- R.Evolve.viewdef views_arr.(vi) d;
           staged_programs.(vi) <- None;
           (match owin vi with
           | Some st -> Window.rebuild st views_arr.(vi)
           | None -> ());
           snap.(vi) <- snapshot_view vi
         end
       done
     with R.Evolve.Evolve_error msg | R.Db.Db_error msg ->
       error "schema change %s rejected: %s" (R.Update.ddl_to_string d) msg);
    R.Delta_program.clear_cache ();
    incr ddl_applied;
    let affected = ref [] in
    for vi = nviews - 1 downto 0 do
      if R.Evolve.affects views_arr.(vi) d then
        affected := (vname.(vi), oracle_view vi) :: !affected
    done;
    let msg = Messaging.Message.Ddl_note d in
    Log.debug (fun f -> f "ddl %a" Messaging.Message.pp msg);
    Messaging.Network.send sites.(i).net Messaging.Network.To_warehouse msg;
    with_obs (fun o -> sample_staleness o);
    Trace.record trace
      (Trace.Source_ddl { ddl = d; source_views = !affected })
  in
  (* The updates of one source event, taken off [pending] and numbered:
     up to [batch_size] consecutive updates of source [i] (a batch never
     spans sources), then with [coalesce] every further consecutive update
     of the same relation and kind — one update-class run that ships as a
     single [Batch_note] down the compiled [apply_batch] path. Only exact
     same-class neighbors coalesce, so the notification's event semantics
     (one atomic batch at one source) are unchanged. *)
  let take_batch i first =
    let rec absorb k (prev : R.Update.t) acc =
      match !pending with
      | `U (u : R.Update.t) :: rest
        when site_of u.R.Update.rel = i
             && (k < batch_size
                || coalesce
                   && String.equal u.R.Update.rel prev.R.Update.rel
                   && u.R.Update.kind = prev.R.Update.kind) ->
        pending := rest;
        if k >= batch_size then begin
          if k = batch_size then incr coalesced_batches;
          incr coalesced_notes
        end;
        incr next_seq;
        let u =
          if u.R.Update.seq = 0 then R.Update.with_seq !next_seq u else u
        in
        absorb (k + 1) u (u :: acc)
      | _ -> List.rev acc
    in
    absorb 0 first []
  in
  (* A DML event at source [i]: execute the batch one update-class run at
     a time, advancing every snapshot once per run, then notify the
     warehouse once. An update the source rejects aborts the run. *)
  let source_batch i first =
    let batch = take_batch i first in
    let st = sites.(i) in
    List.iter
      (fun run ->
        List.iter
          (fun u ->
            try Source_site.Source.execute_update st.source u
            with R.Db.Db_error msg | R.Schema.Schema_error msg ->
              error "site %s rejected update %s: %s" st.spec_name
                (R.Update.to_string u) msg)
          run;
        advance_snapshots_run i run)
      (R.Delta_program.runs batch);
    if windows <> [] then
      List.iter
        (fun u -> Hashtbl.iter (fun _ w -> Window.observe_update w u) oracle_win)
        batch;
    let note =
      match batch with
      | [ u ] -> Messaging.Message.Update_note u
      | us -> Messaging.Message.Batch_note us
    in
    Messaging.Network.send st.net Messaging.Network.To_warehouse note;
    executed := !executed + List.length batch;
    with_obs (fun o ->
        let seqs = List.map (fun u -> u.R.Update.seq) batch in
        let site = st.spec_name in
        Observe.Collector.instant o.oc Observe.Span.Source_apply ~site
          ~ids:seqs ~now:(now ()) ();
        (* The notification's flight, matched at the warehouse by the
           batch's first update seq. *)
        let sp =
          Observe.Collector.open_span o.oc Observe.Span.Update_note ~site
            ~ids:seqs ~now:(now ()) ()
        in
        (match seqs with
        | s :: _ -> Hashtbl.replace o.note_spans (i, s) sp
        | [] -> ());
        sample_staleness o);
    Trace.record trace
      (Trace.Source_update { updates = batch; source_views = affected_views i })
  in
  (* Handler of a source event: the next workload item's source executes
     it atomically — a schema change always alone, never batched or
     coalesced with DML. *)
  let source_event () =
    match !pending with
    | [] -> raise (Engine_error "source event with an empty workload")
    | item :: rest ->
      let i = site_of_item item in
      (match item with
      | `D d ->
        pending := rest;
        source_ddl i d
      | `U u -> source_batch i u);
      refresh_edge i;
      refresh_update ()
  in
  (* Handler of a source receive: answer one query against the source's
     current state and send the answer back on the same edge. *)
  let source_receive i =
    (match
       Messaging.Network.receive sites.(i).net Messaging.Network.To_source
     with
    | None -> raise (Engine_error "source_receive on empty channel")
    | Some (Messaging.Message.Query { id; query }) ->
      let answer, cost =
        Source_site.Source.answer_query sites.(i).source ~id query
      in
      source_io := !source_io + cost.Storage.Cost.io;
      with_obs (fun o ->
          let view, algo = gid_labels id in
          let sp =
            Observe.Collector.open_span o.oc Observe.Span.Answer_arrival ~view
              ~algo ~site:sites.(i).spec_name ~ids:[ id ] ~now:(now ()) ()
          in
          Hashtbl.replace o.answer_spans id sp);
      Messaging.Network.send sites.(i).net Messaging.Network.To_warehouse
        (Messaging.Message.Answer { id; answer; cost });
      Trace.record trace (Trace.Source_answer { gid = id; answer; cost })
    | Some _ -> raise (Engine_error "source received a non-query message"));
    refresh_edge i
  in
  (* The warehouse's rebuild callback for one schema change: rewrite the
     hosted definition and swap in an online-refreshing ECA instance
     (the universal rung — a view that sat on a cheaper rung is demoted
     until its next registration), re-wrapped in its window when the
     view is windowed. The refresh instance starts from an empty
     materialization and a full-view query; it never reads source state
     directly. *)
  let rebuild_view d vd =
    let vd' = R.Evolve.viewdef vd d in
    let cfg =
      Algorithm.Config.make ~rv_period ?local_literal_eval ~view:vd'
        ~init_mv:R.Bag.empty ()
    in
    let inst, outcome = Eca.refresh cfg in
    let inst =
      match Hashtbl.find_opt wh_win vd'.R.Viewdef.name with
      | None -> inst
      | Some st ->
        Window.rebuild st vd';
        Window.wrap st inst
    in
    (vd', inst, outcome)
  in
  (* A notification landed at the warehouse: close its flight span, then
     derive one Compensation event per query still outstanding — those
     are exactly the in-flight queries the algorithm must offset against
     this update (Section 4's compensation). *)
  let obs_note_arrival o i t (us : R.Update.t list) =
    match us with
    | [] -> ()
    | { R.Update.seq; _ } :: _ ->
      close_matched o o.note_spans (i, seq) o.edge_hist.(i) t;
      List.iter
        (fun gid ->
          o.compensations <- o.compensations + 1;
          let view, algo = gid_labels gid in
          Observe.Collector.instant o.oc Observe.Span.Compensation ~view ~algo
            ~site:sites.(i).spec_name ~ids:[ gid; seq ] ~now:t ())
        (List.sort Int.compare
           (Hashtbl.fold (fun gid _ acc -> gid :: acc) o.query_spans []))
  in
  (* The bookkeeping both warehouse events share — a received message
     and a quiescence probe: ship the reaction's queries, watch its
     installs, then observe. [answer] is the gid of a processed answer
     with its owning view's name and algorithm when observed: the
     query's UQS residency ends here, and if the view installed nothing
     the answer parked in COLLECT. Installs flush a view's parked
     answers: its open Collect_install span closes and the depth
     resets. *)
  let after_reaction ?answer ?(probe = false) (r : Warehouse.reaction) =
    ship_queries r.Warehouse.queries;
    watch_installs r.Warehouse.installs;
    with_obs (fun o ->
        let t = now () in
        (match answer with
        | Some (gid, _) -> close_matched o o.query_spans gid o.uqs_hist t
        | None -> ());
        let per_view name =
          Option.map (Array.get o.per_view) (Hashtbl.find_opt name_to_idx name)
        in
        List.iter
          (fun (name, states) ->
            o.collect_installs <- o.collect_installs + List.length states;
            match per_view name with
            | Some ({ ov_collect_span = Some sp; _ } as ov) ->
              ignore (Observe.Collector.close_span o.oc sp ~now:t);
              ov.ov_collect_span <- None;
              ov.ov_collect_depth <- 0
            | _ -> ())
          r.Warehouse.installs;
        (match answer with
        | Some (_, Some (name, algo))
          when not (List.mem_assoc name r.Warehouse.installs) ->
          Option.iter
            (fun ov ->
              ov.ov_collect_depth <- ov.ov_collect_depth + 1;
              if ov.ov_collect_depth > o.collect_depth_max then
                o.collect_depth_max <- ov.ov_collect_depth;
              if ov.ov_collect_span = None then
                ov.ov_collect_span <-
                  Some
                    (Observe.Collector.open_span o.oc
                       Observe.Span.Collect_install ~view:name ~algo
                       ~site:"warehouse" ~ids:[] ~now:t ()))
            (per_view name)
        | _ -> ());
        if probe then
          Observe.Collector.instant o.oc Observe.Span.Quiescence
            ~site:"warehouse" ~ids:[] ~now:t ();
        sample_staleness ~quiesce:probe o)
  in
  let note us (r : Warehouse.reaction) =
    Trace.record trace
      (Trace.Warehouse_note
         {
           updates = us;
           queries = r.Warehouse.queries;
           installs = r.Warehouse.installs;
         });
    (r, None)
  in
  (* Handler of a warehouse receive: one dispatch on the message kind.
     Each kind's arrival is observed, handled and traced; the reaction's
     shared bookkeeping follows. *)
  let warehouse_receive i =
    let t = now () in
    let reaction, answer =
      match
        Messaging.Network.receive sites.(i).net Messaging.Network.To_warehouse
      with
      | None -> raise (Engine_error "warehouse_receive on empty channel")
      | Some (Messaging.Message.Update_note u) ->
        with_obs (fun o -> obs_note_arrival o i t [ u ]);
        note [ u ] (Warehouse.handle_update warehouse u)
      | Some (Messaging.Message.Batch_note us) ->
        with_obs (fun o -> obs_note_arrival o i t us);
        note us (Warehouse.handle_batch warehouse us)
      | Some (Messaging.Message.Answer { id; answer; cost }) ->
        incr answers_received;
        answer_tuples := !answer_tuples + cost.Storage.Cost.answer_tuples;
        answer_bytes := !answer_bytes + cost.Storage.Cost.answer_bytes;
        (* The owning view, read before [handle_answer] consumes the
           gid's route. *)
        let view =
          match obs with
          | None -> None
          | Some o ->
            close_matched o o.answer_spans id o.edge_hist.(i) t;
            Warehouse.gid_view warehouse id
        in
        let r = Warehouse.handle_answer warehouse ~gid:id answer in
        Trace.record trace
          (Trace.Warehouse_answer { gid = id; installs = r.Warehouse.installs });
        (r, Some (id, view))
      | Some (Messaging.Message.Ddl_note d) ->
        let r, rebuilt =
          Warehouse.apply_ddl warehouse d ~rebuild:(rebuild_view d)
        in
        refresh_queries := !refresh_queries + List.length r.Warehouse.queries;
        Trace.record trace
          (Trace.Warehouse_ddl
             {
               ddl = d;
               rebuilt;
               queries = r.Warehouse.queries;
               installs = r.Warehouse.installs;
             });
        (r, None)
      | Some
          (( Messaging.Message.Query _ | Messaging.Message.Data _
           | Messaging.Message.Ack _ ) as msg) ->
        (* Misrouted: the warehouse records an anomaly and produces no
           reaction — nothing to trace. *)
        (Warehouse.misrouted warehouse msg, None)
    in
    after_reaction ?answer reaction;
    (* [ship_queries] already refreshed the edges it sent on; this
       edge's receive side changed too. *)
    refresh_edge i
  in
  (* Handler of a transport tick: messages are in flight but none is
     deliverable — delayed transmissions ripening, or reliability-layer
     frames awaiting acks/retransmission. Advance the transport clock of
     every busy edge one tick; the tick is a scheduler decision, so
     faulty runs stay deterministic. Idle edges are left alone: their
     clocks only matter relative to their own traffic — and the walk
     visits only the active set, not all N sites. *)
  let tick () =
    Scheduler.Iset.iter
      (fun i ->
        let st = sites.(i) in
        Messaging.Network.tick st.net;
        st.ticks <- st.ticks + 1;
        refresh_edge i)
      !active;
    incr ticks
  in
  (* Handler of a quiescence probe on the drained graph (where RV flushes
     a partial period). True when the probe produced new work. *)
  let quiescence_probe () =
    let r = Warehouse.quiesce warehouse in
    after_reaction ~probe:true r;
    let more = r.Warehouse.queries <> [] || r.Warehouse.installs <> [] in
    if more then
      Trace.record trace
        (Trace.Quiesce_probe
           { queries = r.Warehouse.queries; installs = r.Warehouse.installs });
    more
  in
  refresh_update ();
  let rec loop () =
    incr steps;
    if !steps > max_steps then
      raise (Engine_error "simulation exceeded max_steps");
    match Scheduler.pick_ready sched ready with
    | Some Scheduler.Apply ->
      source_event ();
      loop ()
    | Some (Scheduler.Site_source i) ->
      source_receive i;
      loop ()
    | Some (Scheduler.Site_warehouse i) ->
      warehouse_receive i;
      loop ()
    | None when not (Scheduler.Iset.is_empty !active) ->
      tick ();
      loop ()
    | None -> if quiescence_probe () then loop ()
  in
  loop ();
  (* Spans whose closing message was lost forever on a raw faulty edge
     never terminate on their own — force-close them so every trace is
     well-formed, and count them as lost frames. *)
  let observe =
    Option.map
      (fun o ->
        Observe.Collector.close_all o.oc ~now:(now ());
        {
          Metrics.spans = Observe.Collector.spans_recorded o.oc;
          span_dropped = Observe.Collector.dropped o.oc;
          span_forced = Observe.Collector.forced_closes o.oc;
          gauges = Observe.Collector.gauges_recorded o.oc;
          compensations = o.compensations;
          collect_installs = o.collect_installs;
          collect_depth_max = o.collect_depth_max;
          uqs_residency = o.uqs_hist;
          edge_latency =
            Array.to_list
              (Array.mapi (fun i h -> (sites.(i).spec_name, h)) o.edge_hist);
          staleness =
            List.mapi
              (fun vi ov ->
                ( vname.(vi),
                  {
                    Metrics.stale_samples = ov.ov_samples;
                    stale_max = ov.ov_max;
                    stale_mean =
                      (if ov.ov_samples = 0 then 0.0
                       else float_of_int ov.ov_sum /. float_of_int ov.ov_samples);
                    stale_final = ov.ov_final;
                    stale_quiesce_max = ov.ov_quiesce_max;
                  } ))
              (Array.to_list o.per_view);
        })
      obs
  in
  let site_delivery =
    Array.to_list
      (Array.map
         (fun st ->
           let rel f =
             match Messaging.Network.reliability st.net with
             | Some s -> f s
             | None -> 0
           in
           ( st.spec_name,
             {
               Metrics.ticks = st.ticks;
               retransmits = rel (fun s -> s.Messaging.Reliable.retransmits);
               dups_dropped = rel (fun s -> s.Messaging.Reliable.dups_dropped);
               acks = rel (fun s -> s.Messaging.Reliable.acks_sent);
               msgs_dropped = Messaging.Network.total_dropped st.net;
               msgs_duplicated = Messaging.Network.total_duplicated st.net;
               delivered = rel (fun s -> s.Messaging.Reliable.delivered);
               latency_total = rel (fun s -> s.Messaging.Reliable.latency_total);
               latency_max = rel (fun s -> s.Messaging.Reliable.latency_max);
               wire_messages = Messaging.Network.total_messages st.net;
               wire_bytes = Messaging.Network.total_bytes st.net;
             } ))
         sites)
  in
  let delivery =
    {
      (List.fold_left
         (fun acc (_, d) -> Metrics.add_delivery acc d)
         Metrics.no_delivery site_delivery)
      with
      Metrics.ticks = !ticks;
    }
  in
  let shared =
    if not share_deltas then None
    else
      let shared_evaluated, shared_hits, shared_fanout =
        Warehouse.shared_counters warehouse
      in
      Some { Metrics.shared_evaluated; shared_hits; shared_fanout }
  in
  let evolution =
    if !ddl_applied = 0 && windows = [] then None
    else
      let views_rebuilt, retired_answers =
        Warehouse.evolution_counters warehouse
      in
      (* [wh_win] holds the states the window wrappers share; they
         survive rebuilds. *)
      let win_pruned_terms, win_local_answers, win_aged_partitions =
        Hashtbl.fold
          (fun _ st (p, l, a) ->
            let p', l', a' = Window.counters st in
            (p + p', l + l', a + a'))
          wh_win (0, 0, 0)
      in
      Some
        {
          Metrics.ddl_applied = !ddl_applied;
          views_rebuilt;
          refresh_queries = !refresh_queries;
          stale_answers =
            Array.fold_left
              (fun acc st -> acc + Source_site.Source.stale_answers st.source)
              0 sites;
          retired_answers;
          win_pruned_terms;
          win_local_answers;
          win_aged_partitions;
        }
  in
  let metrics =
    {
      Metrics.updates = !executed;
      queries_sent = !queries_sent;
      answers_received = !answers_received;
      answer_tuples = !answer_tuples;
      answer_bytes = !answer_bytes;
      query_bytes = !query_bytes;
      source_io = !source_io;
      steps = !steps;
      delivery;
      site_delivery;
      observe;
      shared;
      scale =
        (if not track_scale then None
         else
           Some
             {
               Metrics.inflight_max = !inflight_max;
               coalesced_notes = !coalesced_notes;
               coalesced_batches = !coalesced_batches;
               active_max = !active_max;
             });
      selfmaint = Warehouse.selfmaint_counters warehouse;
      evolution;
    }
  in
  let reports =
    List.map
      (fun (name, (source_states, warehouse_states)) ->
        (name, Consistency.check ~source_states ~warehouse_states))
      (Trace.states trace (List.map (fun v -> v.R.Viewdef.name) views))
  in
  {
    trace;
    metrics;
    reports;
    final_mvs = Warehouse.mvs warehouse;
    final_source_views = oracle_views ();
    negative_installs = List.rev !negative_installs;
    sources =
      Array.to_list (Array.map (fun st -> (st.spec_name, st.source)) sites);
    warehouse_anomalies = Warehouse.anomalies warehouse;
  }
