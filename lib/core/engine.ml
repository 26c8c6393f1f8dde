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
  retransmit_timeout : int option;
}

let site ?catalog ?(fault = Messaging.Fault.none) ?(fault_seed = 0)
    ?(reliable = false) ?retransmit_timeout ~name db =
  { name; db; catalog; fault; fault_seed; reliable; retransmit_timeout }

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
  query_spans : (int, int * int) Hashtbl.t;  (* gid -> (span, site) *)
  answer_spans : (int, int) Hashtbl.t;  (* gid -> span *)
  per_view : (string * obs_per_view) list;
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
    ?(share_deltas = false) ?(coalesce = false) ?shard ?(track_scale = false)
    ?(evolution = []) ?(windows = []) ~creator ~sites:specs ~views ~updates () =
  if batch_size < 1 then raise (Engine_error "batch_size must be at least 1");
  if rv_period < 1 then raise (Engine_error "rv_period must be at least 1");
  if specs = [] then
    raise (Engine_error "a site graph needs at least one source");
  List.iter
    (fun s ->
      match s.retransmit_timeout with
      | Some t when t < 1 ->
        error "site %s: retransmit_timeout must be at least 1" s.name
      | _ -> ())
    specs;
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
                 ~seed:s.fault_seed ~reliable:s.reliable
                 ?timeout:s.retransmit_timeout ();
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
                   match Hashtbl.find_opt owner rel with
                   | Some i -> i
                   | None ->
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
  let warehouse =
    Warehouse.of_creator ~share:share_deltas ?pool:shard ~creator ~configs ()
  in
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
  let name_to_idx = Hashtbl.create (max 16 nviews) in
  Array.iteri (fun vi name -> Hashtbl.replace name_to_idx name vi) vname;
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
  let rec merge_idx a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' ->
      if x < y then x :: merge_idx a' b
      else if y < x then y :: merge_idx a b'
      else x :: merge_idx a' b'
  in
  let affected_idx =
    Array.map (fun svs -> merge_idx svs !cross_views) site_views
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
  let initial_views =
    Array.to_list (Array.init nviews (fun vi -> (vname.(vi), oracle_view vi)))
  in
  let trace = Trace.create ~initial_views in
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
  let advance_cross () =
    match !cross_views with
    | [] -> ()
    | cvs ->
      (* Cross-source views are an opt-in anomaly demonstration, not a
         performance path: recompute from the merged state. *)
      let mdb = merged_db () in
      List.iter (fun vi -> snap.(vi) <- R.Viewdef.eval mdb views_arr.(vi)) cvs
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
  let site_of_update (u : R.Update.t) =
    if n = 1 then 0
    else
      match Hashtbl.find_opt owner u.R.Update.rel with
      | Some i -> i
      | None -> error "no source owns relation %s" u.R.Update.rel
  in
  let site_of_query q =
    if n = 1 then 0
    else
      match R.Query.base_relations q with
      | rel :: _ -> (
        match Hashtbl.find_opt owner rel with
        | Some i -> i
        | None -> error "no source owns relation %s" rel)
      | [] -> 0  (* all-literal queries can go anywhere; pick the first *)
  in
  let site_of_ddl (d : R.Update.ddl) =
    if n = 1 then 0
    else
      match Hashtbl.find_opt owner (R.Update.ddl_rel d) with
      | Some i -> i
      | None -> error "no source owns relation %s" (R.Update.ddl_rel d)
  in
  (* The workload item stream: DML updates woven with the scheduled
     schema changes. A change at position [p] fires after [p] updates
     have been applied; with no [evolution] the stream is exactly the
     update list and the run is byte-identical to a pre-evolution one. *)
  let items =
    match evolution with
    | [] -> List.map (fun u -> `U u) updates
    | evo ->
      let evo =
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) evo
      in
      let rec weave applied ups evo acc =
        match evo with
        | (p, d) :: evo' when p <= applied -> weave applied ups evo' (`D d :: acc)
        | _ -> (
          match ups with
          | [] -> List.rev_append acc (List.map (fun (_, d) -> `D d) evo)
          | u :: ups' -> weave (applied + 1) ups' evo (`U u :: acc))
      in
      weave 0 updates evo []
  in
  let site_of_item = function
    | `U u -> site_of_update u
    | `D d -> site_of_ddl d
  in
  let pending = ref items in
  let next_seq = ref 0 in
  let m = ref Metrics.zero in
  let bump f = m := f !m in
  (* Incrementally maintained scheduling state: the ready sets the
     scheduler picks from, and the set of non-idle edges the tick branch
     walks. Every edge mutation (send, receive, tick) is followed by a
     [refresh_edge] of exactly the touched edges, so one step costs
     O(active edges), never O(N) — the property that lets this loop
     drive hundreds of sources. *)
  let ready = Scheduler.Ready.create n in
  let active = ref Scheduler.Iset.empty in
  let inflight_max = ref 0 in
  let active_max = ref 0 in
  let coalesced_notes = ref 0 in
  let coalesced_batches = ref 0 in
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
    match !pending with
    | [] ->
      Scheduler.Ready.set_update ready false;
      Scheduler.Ready.set_update_site ready (-1)
    | it :: _ ->
      Scheduler.Ready.set_update ready true;
      Scheduler.Ready.set_update_site ready (site_of_item it)
  in
  (* The spans' logical clock: the engine's step counter, bumped once per
     scheduler decision before the event executes — deterministic across
     PAR settings because the loop itself is single-threaded. *)
  let now () = (!m).Metrics.steps in
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
            List.map
              (fun (v : R.Viewdef.t) ->
                ( v.R.Viewdef.name,
                  {
                    ov_last_match = 0;
                    ov_samples = 0;
                    ov_sum = 0;
                    ov_max = 0;
                    ov_final = 0;
                    ov_quiesce_max = 0;
                    ov_collect_span = None;
                    ov_collect_depth = 0;
                  } ))
              views;
          edge_hist = Array.init n (fun _ -> Metrics.hist_create ());
          uqs_hist = Metrics.hist_create ();
          compensations = 0;
          collect_installs = 0;
          collect_depth_max = 0;
        }
  in
  let with_obs f = match obs with None -> () | Some o -> f o in
  (* The view/algorithm labels of a query gid, looked up while the
     warehouse still routes it. *)
  let gid_labels gid =
    match Warehouse.gid_view warehouse gid with
    | Some (view, algo) -> (view, algo)
    | None -> ("", "")
  in
  (* Sample the per-view staleness gauge: ticks since the warehouse's
     materialization last equalled the centralized oracle state. Sampled
     after every state-changing event; [quiesce] marks drained-graph
     probes, whose maximum is the strong-consistency witness. *)
  let sample_staleness ?(quiesce = false) o =
    let t = now () in
    List.iter
      (fun (name, ov) ->
        (match (Warehouse.mv warehouse name, Hashtbl.find_opt name_to_idx name)
         with
        | Some mv, Some vi when R.Bag.equal mv (oracle_view vi) ->
          ov.ov_last_match <- t
        | _ -> ());
        let stale = t - ov.ov_last_match in
        ov.ov_samples <- ov.ov_samples + 1;
        ov.ov_sum <- ov.ov_sum + stale;
        if stale > ov.ov_max then ov.ov_max <- stale;
        ov.ov_final <- stale;
        if quiesce && stale > ov.ov_quiesce_max then ov.ov_quiesce_max <- stale;
        Observe.Collector.gauge o.oc ~name:"staleness" ~key:name ~now:t
          ~value:stale)
      o.per_view
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
        let i = site_of_query q in
        let msg = Messaging.Message.Query { id = gid; query = q } in
        Log.debug (fun f -> f "ship %a" Messaging.Message.pp msg);
        bump (fun m ->
            {
              m with
              Metrics.queries_sent = m.Metrics.queries_sent + 1;
              query_bytes =
                m.Metrics.query_bytes + Messaging.Message.byte_size msg;
            });
        with_obs (fun o ->
            (* Open for the whole round trip: this is the query's
               residency in the algorithm's unanswered-query set. *)
            let view, algo = gid_labels gid in
            let sp =
              Observe.Collector.open_span o.oc Observe.Span.Query_send ~view
                ~algo ~site:sites.(i).spec_name ~ids:[ gid ] ~now:(now ()) ()
            in
            Hashtbl.replace o.query_spans gid (sp, i));
        Messaging.Network.send sites.(i).net Messaging.Network.To_source msg;
        refresh_edge i)
      queries
  in
  let ddl_applied = ref 0 in
  let refresh_queries = ref 0 in
  (* One atomic source event for a schema change: apply it to the base
     relations, rewrite the oracle's definitions of every affected view
     (their delta programs are restaged on next use), and notify the
     warehouse with a [Ddl_note] on the owning edge. On a FIFO edge the
     note precedes every later message, so the warehouse always rebuilds
     before any tombstone answer arrives — the order raw faulty channels
     may break. *)
  let apply_ddl_at_source i (d : R.Update.ddl) =
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
     with R.Evolve.Evolve_error msg ->
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
      (Trace.Source_ddl { ddl = d; source_views = !affected });
    i
  in
  let apply_update () =
    (* One atomic source event: execute up to [batch_size] consecutive
       updates of one source, then notify the warehouse once. A batch
       never spans sources — each notification travels one edge. A
       schema change is always its own event: it never batches or
       coalesces with DML. *)
    match !pending with
    | [] -> raise (Engine_error "apply_update with empty workload")
    | `D d :: rest ->
      pending := rest;
      apply_ddl_at_source (site_of_ddl d) d
    | `U first :: _ ->
      let i = site_of_update first in
      let rec take k acc =
        if k = 0 then List.rev acc
        else
          match !pending with
          | `U u :: rest when site_of_update u = i ->
            pending := rest;
            incr next_seq;
            let u =
              if u.R.Update.seq = 0 then R.Update.with_seq !next_seq u else u
            in
            take (k - 1) (u :: acc)
          | _ -> List.rev acc
      in
      let batch = take batch_size [] in
      (* Per-edge coalescing: keep absorbing consecutive updates of the
         same relation and kind past [batch_size] — one update-class run
         that ships as a single [Batch_note] and flows down the compiled
         [apply_batch] path at warehouse, replica and oracle alike,
         instead of one wire message per update. Only exact same-class
         neighbors coalesce, so the notification's event semantics (one
         atomic batch at one source) are unchanged. *)
      let batch =
        if not coalesce then batch
        else
          match List.rev batch with
          | [] -> batch
          | last :: _ ->
            let rec extend (prev : R.Update.t) acc =
              match !pending with
              | `U u :: rest
                when site_of_update u = i
                     && String.equal u.R.Update.rel prev.R.Update.rel
                     && u.R.Update.kind = prev.R.Update.kind ->
                pending := rest;
                incr next_seq;
                let u =
                  if u.R.Update.seq = 0 then R.Update.with_seq !next_seq u
                  else u
                in
                extend u (u :: acc)
              | _ -> List.rev acc
            in
            let extras = extend last [] in
            if extras <> [] then begin
              coalesced_notes := !coalesced_notes + List.length extras;
              incr coalesced_batches
            end;
            batch @ extras
      in
      (* Execute each update-class run, then advance every snapshot once
         per run through its staged program. *)
      List.iter
        (fun run ->
          List.iter
            (fun u -> Source_site.Source.execute_update sites.(i).source u)
            run;
          advance_snapshots_run i run)
        (R.Delta_program.runs batch);
      if windows <> [] then
        List.iter
          (fun u -> Hashtbl.iter (fun _ st -> Window.observe_update st u) oracle_win)
          batch;
      let note =
        match batch with
        | [ u ] -> Messaging.Message.Update_note u
        | us -> Messaging.Message.Batch_note us
      in
      Messaging.Network.send sites.(i).net Messaging.Network.To_warehouse note;
      bump (fun m ->
          { m with Metrics.updates = m.Metrics.updates + List.length batch });
      with_obs (fun o ->
          let seqs = List.map (fun u -> u.R.Update.seq) batch in
          let site = sites.(i).spec_name in
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
        (Trace.Source_update
           { updates = batch; source_views = affected_views i });
      i
  in
  let source_receive i =
    match
      Messaging.Network.receive sites.(i).net Messaging.Network.To_source
    with
    | None -> raise (Engine_error "source_receive on empty channel")
    | Some (Messaging.Message.Query { id; query }) ->
      let answer, cost =
        Source_site.Source.answer_query sites.(i).source ~id query
      in
      bump (fun m ->
          {
            m with
            Metrics.source_io = m.Metrics.source_io + cost.Storage.Cost.io;
          });
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
    | Some
        ( Messaging.Message.Update_note _ | Messaging.Message.Batch_note _
        | Messaging.Message.Answer _ | Messaging.Message.Ddl_note _
        | Messaging.Message.Data _ | Messaging.Message.Ack _ ) ->
      raise (Engine_error "source received a non-query message")
  in
  let algo_of_view name =
    match List.assoc_opt name (Warehouse.algorithms warehouse) with
    | Some a -> a
    | None -> ""
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
  let obs_note_arrival o i t seqs =
    (match seqs with
    | s :: _ -> (
      match Hashtbl.find_opt o.note_spans (i, s) with
      | Some sp ->
        Hashtbl.remove o.note_spans (i, s);
        (match Observe.Collector.close_span o.oc sp ~now:t with
        | Some sp ->
          Metrics.hist_add o.edge_hist.(i) (Observe.Span.duration sp)
        | None -> ())
      | None -> ())
    | [] -> ());
    let outstanding =
      List.sort Int.compare
        (Hashtbl.fold (fun gid _ acc -> gid :: acc) o.query_spans [])
    in
    List.iter
      (fun gid ->
        o.compensations <- o.compensations + 1;
        let view, algo = gid_labels gid in
        Observe.Collector.instant o.oc Observe.Span.Compensation ~view ~algo
          ~site:sites.(i).spec_name
          ~ids:(gid :: (match seqs with s :: _ -> [ s ] | [] -> []))
          ~now:t ())
      outstanding
  in
  (* Installs flush a view's parked answers: close its open
     Collect_install span and reset the depth. *)
  let obs_handle_installs o t installs =
    List.iter
      (fun (name, states) ->
        o.collect_installs <- o.collect_installs + List.length states;
        match List.assoc_opt name o.per_view with
        | Some ov -> (
          match ov.ov_collect_span with
          | Some sp ->
            ignore (Observe.Collector.close_span o.oc sp ~now:t);
            ov.ov_collect_span <- None;
            ov.ov_collect_depth <- 0
          | None -> ())
        | None -> ())
      installs
  in
  let warehouse_receive i =
    match
      Messaging.Network.receive sites.(i).net Messaging.Network.To_warehouse
    with
    | None -> raise (Engine_error "warehouse_receive on empty channel")
    | Some msg ->
      (match msg with
       | Messaging.Message.Answer { cost; _ } ->
         bump (fun m ->
             {
               m with
               Metrics.answers_received = m.Metrics.answers_received + 1;
               answer_tuples =
                 m.Metrics.answer_tuples + cost.Storage.Cost.answer_tuples;
               answer_bytes =
                 m.Metrics.answer_bytes + cost.Storage.Cost.answer_bytes;
             })
       | _ -> ());
      (* The owning view of an incoming answer, read before
         [handle_message] consumes the gid's route. *)
      let answer_view =
        match (obs, msg) with
        | Some _, Messaging.Message.Answer { id; _ } -> (
          match Warehouse.gid_view warehouse id with
          | Some (view, _) -> Some view
          | None -> None)
        | _ -> None
      in
      with_obs (fun o ->
          let t = now () in
          match msg with
          | Messaging.Message.Update_note u ->
            obs_note_arrival o i t [ u.R.Update.seq ]
          | Messaging.Message.Batch_note us ->
            obs_note_arrival o i t (List.map (fun u -> u.R.Update.seq) us)
          | Messaging.Message.Answer { id; _ } -> (
            match Hashtbl.find_opt o.answer_spans id with
            | Some sp ->
              Hashtbl.remove o.answer_spans id;
              (match Observe.Collector.close_span o.oc sp ~now:t with
              | Some sp ->
                Metrics.hist_add o.edge_hist.(i) (Observe.Span.duration sp)
              | None -> ())
            | None -> ())
          | _ -> ());
      let reaction, ddl_rebuilt =
        match msg with
        | Messaging.Message.Ddl_note d ->
          let reaction, rebuilt =
            Warehouse.apply_ddl warehouse d ~rebuild:(rebuild_view d)
          in
          refresh_queries :=
            !refresh_queries + List.length reaction.Warehouse.queries;
          (reaction, rebuilt)
        | _ -> (Warehouse.handle_message warehouse msg, [])
      in
      ship_queries reaction.Warehouse.queries;
      watch_installs reaction.Warehouse.installs;
      with_obs (fun o ->
          let t = now () in
          (* The answer has been processed: its query's UQS residency
             ends here, whether the result installed or parked. *)
          (match msg with
          | Messaging.Message.Answer { id; _ } -> (
            match Hashtbl.find_opt o.query_spans id with
            | Some (sp, _) ->
              Hashtbl.remove o.query_spans id;
              (match Observe.Collector.close_span o.oc sp ~now:t with
              | Some sp ->
                Metrics.hist_add o.uqs_hist (Observe.Span.duration sp)
              | None -> ())
            | None -> ())
          | _ -> ());
          obs_handle_installs o t reaction.Warehouse.installs;
          (* An answer that installed nothing parked in COLLECT. *)
          (match (msg, answer_view) with
          | Messaging.Message.Answer _, Some name
            when not (List.mem_assoc name reaction.Warehouse.installs) -> (
            match List.assoc_opt name o.per_view with
            | Some ov ->
              ov.ov_collect_depth <- ov.ov_collect_depth + 1;
              if ov.ov_collect_depth > o.collect_depth_max then
                o.collect_depth_max <- ov.ov_collect_depth;
              (match ov.ov_collect_span with
              | Some _ -> ()
              | None ->
                ov.ov_collect_span <-
                  Some
                    (Observe.Collector.open_span o.oc
                       Observe.Span.Collect_install ~view:name
                       ~algo:(algo_of_view name) ~site:"warehouse" ~ids:[]
                       ~now:t ()))
            | None -> ())
          | _ -> ());
          sample_staleness o);
      (match msg with
       | Messaging.Message.Update_note u ->
         Trace.record trace
           (Trace.Warehouse_note
              {
                updates = [ u ];
                queries = reaction.Warehouse.queries;
                installs = reaction.Warehouse.installs;
              })
       | Messaging.Message.Batch_note us ->
         Trace.record trace
           (Trace.Warehouse_note
              {
                updates = us;
                queries = reaction.Warehouse.queries;
                installs = reaction.Warehouse.installs;
              })
       | Messaging.Message.Answer { id; _ } ->
         Trace.record trace
           (Trace.Warehouse_answer
              { gid = id; installs = reaction.Warehouse.installs })
       | Messaging.Message.Ddl_note d ->
         Trace.record trace
           (Trace.Warehouse_ddl
              {
                ddl = d;
                rebuilt = ddl_rebuilt;
                queries = reaction.Warehouse.queries;
                installs = reaction.Warehouse.installs;
              })
       | Messaging.Message.Query _ | Messaging.Message.Data _
       | Messaging.Message.Ack _ ->
         (* Misrouted: the warehouse recorded it as an anomaly and
            produced no reaction — nothing to trace. *)
         ())
  in
  let ticks = ref 0 in
  refresh_update ();
  let rec loop () =
    bump (fun m -> { m with Metrics.steps = m.Metrics.steps + 1 });
    if (!m).Metrics.steps > max_steps then
      raise (Engine_error "simulation exceeded max_steps");
    match Scheduler.pick_ready sched ready with
    | Some Scheduler.Apply ->
      let i = apply_update () in
      refresh_edge i;
      refresh_update ();
      loop ()
    | Some (Scheduler.Site_source i) ->
      source_receive i;
      refresh_edge i;
      loop ()
    | Some (Scheduler.Site_warehouse i) ->
      warehouse_receive i;
      (* [ship_queries] inside already refreshed the edges it sent on;
         this edge's receive side changed too. *)
      refresh_edge i;
      loop ()
    | None ->
      if not (Scheduler.Iset.is_empty !active) then begin
        (* Messages are in flight but not yet deliverable — delayed
           transmissions ripening, or reliability-layer frames awaiting
           acks/retransmission. Advance the transport clock of every busy
           edge one tick and re-examine; the tick is a scheduler decision,
           so faulty runs stay deterministic. Idle edges are left alone:
           their clocks only matter relative to their own traffic — and
           the walk visits only the active set, not all N sites. *)
        Scheduler.Iset.iter
          (fun i ->
            let st = sites.(i) in
            Messaging.Network.tick st.net;
            st.ticks <- st.ticks + 1;
            refresh_edge i)
          !active;
        incr ticks;
        loop ()
      end
      else begin
        let reaction = Warehouse.quiesce warehouse in
        ship_queries reaction.Warehouse.queries;
        watch_installs reaction.Warehouse.installs;
        with_obs (fun o ->
            let t = now () in
            obs_handle_installs o t reaction.Warehouse.installs;
            Observe.Collector.instant o.oc Observe.Span.Quiescence
              ~site:"warehouse" ~ids:[] ~now:t ();
            sample_staleness ~quiesce:true o);
        if
          reaction.Warehouse.queries <> [] || reaction.Warehouse.installs <> []
        then begin
          Trace.record trace
            (Trace.Quiesce_probe
               {
                 queries = reaction.Warehouse.queries;
                 installs = reaction.Warehouse.installs;
               });
          loop ()
        end
      end
  in
  loop ();
  (match obs with
  | None -> ()
  | Some o ->
    (* Spans whose closing message was lost forever on a raw faulty edge
       never terminate on their own — force-close them so every trace is
       well-formed, and count them as lost frames. *)
    Observe.Collector.close_all o.oc ~now:(now ());
    let summary =
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
          List.map
            (fun (name, ov) ->
              ( name,
                {
                  Metrics.stale_samples = ov.ov_samples;
                  stale_max = ov.ov_max;
                  stale_mean =
                    (if ov.ov_samples = 0 then 0.0
                     else float_of_int ov.ov_sum /. float_of_int ov.ov_samples);
                  stale_final = ov.ov_final;
                  stale_quiesce_max = ov.ov_quiesce_max;
                } ))
            o.per_view;
      }
    in
    bump (fun m -> { m with Metrics.observe = Some summary }));
  let site_delivery =
    Array.to_list
      (Array.map
         (fun st ->
           let d =
             match Messaging.Network.reliability st.net with
             | Some s ->
               {
                 Metrics.no_delivery with
                 Metrics.retransmits = s.Messaging.Reliable.retransmits;
                 dups_dropped = s.Messaging.Reliable.dups_dropped;
                 acks = s.Messaging.Reliable.acks_sent;
                 delivered = s.Messaging.Reliable.delivered;
                 latency_total = s.Messaging.Reliable.latency_total;
                 latency_max = s.Messaging.Reliable.latency_max;
               }
             | None -> Metrics.no_delivery
           in
           ( st.spec_name,
             {
               d with
               Metrics.ticks = st.ticks;
               msgs_dropped = Messaging.Network.total_dropped st.net;
               msgs_duplicated = Messaging.Network.total_duplicated st.net;
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
  bump (fun m -> { m with Metrics.delivery; site_delivery });
  if share_deltas then begin
    let shared_evaluated, shared_hits, shared_fanout =
      Warehouse.shared_counters warehouse
    in
    bump (fun m ->
        {
          m with
          Metrics.shared =
            Some { Metrics.shared_evaluated; shared_hits; shared_fanout };
        })
  end;
  if track_scale then
    bump (fun m ->
        {
          m with
          Metrics.scale =
            Some
              {
                Metrics.inflight_max = !inflight_max;
                coalesced_notes = !coalesced_notes;
                coalesced_batches = !coalesced_batches;
                active_max = !active_max;
              };
        });
  (match Warehouse.selfmaint_counters warehouse with
  | None -> ()
  | Some sm -> bump (fun m -> { m with Metrics.selfmaint = Some sm }));
  if !ddl_applied > 0 || windows <> [] then begin
    let views_rebuilt, retired_answers =
      Warehouse.evolution_counters warehouse
    in
    let stale_answers =
      Array.fold_left
        (fun acc st -> acc + Source_site.Source.stale_answers st.source)
        0 sites
    in
    let win_pruned_terms, win_local_answers, win_aged_partitions =
      Option.value ~default:(0, 0, 0) (Warehouse.window_counters warehouse)
    in
    bump (fun m ->
        {
          m with
          Metrics.evolution =
            Some
              {
                Metrics.ddl_applied = !ddl_applied;
                views_rebuilt;
                refresh_queries = !refresh_queries;
                stale_answers;
                retired_answers;
                win_pruned_terms;
                win_local_answers;
                win_aged_partitions;
              };
        })
  end;
  let reports =
    List.map
      (fun (name, (source_states, warehouse_states)) ->
        (name, Consistency.check ~source_states ~warehouse_states))
      (Trace.states trace (List.map (fun v -> v.R.Viewdef.name) views))
  in
  {
    trace;
    metrics = !m;
    reports;
    final_mvs = Warehouse.mvs warehouse;
    final_source_views =
      Array.to_list
        (Array.mapi (fun vi _ -> (vname.(vi), oracle_view vi)) snap);
    negative_installs = List.rev !negative_installs;
    sources =
      Array.to_list (Array.map (fun st -> (st.spec_name, st.source)) sites);
    warehouse_anomalies = Warehouse.anomalies warehouse;
  }
