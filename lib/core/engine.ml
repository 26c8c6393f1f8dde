module R = Relational

exception Engine_error of string

let error fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

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

(* The run's counters, folded into one [Metrics.t] by [finish]. *)
type counters = {
  mutable steps : int;  (* the spans' clock too, bumped before each event *)
  mutable ticks : int; mutable executed : int;
  mutable queries_sent : int; mutable query_bytes : int;
  mutable answers_received : int; mutable answer_tuples : int;
  mutable answer_bytes : int; mutable source_io : int;
  mutable ddl_applied : int; mutable refresh_queries : int;
  mutable inflight_max : int; mutable active_max : int;
  mutable coalesced_notes : int; mutable coalesced_batches : int;
}

type event = Observer.event = Pick of Scheduler.event | Tick | Probe

type 'a options =
  ?schedule:Scheduler.policy -> ?rv_period:int -> ?batch_size:int ->
  ?local_literal_eval:bool -> ?allow_cross_source:bool ->
  ?observe:Observe.Collector.t -> ?share_deltas:bool -> ?coalesce:bool ->
  ?track_scale:bool -> ?evolution:(int * R.Update.ddl) list ->
  ?windows:(string * Window.spec) list -> creator:Algorithm.creator ->
  sites:site_spec list -> views:R.Viewdef.t list -> updates:R.Update.t list ->
  unit -> 'a

(* Views of one site that one staged program advances
   ([Delta_program.shareable]: projections of one join, or equal
   definitions): one join pass per update-class run, projected once per
   distinct projection. The views of a class — equal definitions up to
   their names — share one physical snapshot. *)
type group = {
  classes : int array array;  (* per distinct projection, its views ascending *)
  acc : R.Bag.t array;  (* the pass's accumulators, one per class *)
  mutable program : R.Delta_program.staged option;  (* staged on first use *)
}

(* A run in progress. Per-view bookkeeping is indexed in [views] order —
   a wide catalog over many sources pays only for the views an event
   actually touches, never an O(views) assoc scan per event. *)
type state = {
  sched : Scheduler.t;
  sites : site_state array;
  owner : (string, int) Hashtbl.t;  (* relation -> owning site *)
  views : R.Viewdef.t array;  (* the oracle's, rewritten by schema changes *)
  vname : string array;
  vsite : int option array;  (* the owning site; [None]: cross-source *)
  site_views : int list array;  (* ascending, per site *)
  site_groups : group list array;  (* per site; regrouped by a schema change *)
  cross_views : int list;  (* ascending *)
  wh_win : (string, Window.state) Hashtbl.t;
  oracle_win : (string, Window.state) Hashtbl.t;
  warehouse : Warehouse.t;
  snap : R.Bag.t array;  (* the oracle's current source-view states *)
  trace : Trace.t;
  mutable pending : (int * [ `U of R.Update.t | `D of R.Update.ddl ]) list;
      (* each workload item with the site it routes to, routed at [start] *)
  mutable next_seq : int;
  c : counters;
  ready : Scheduler.Ready.t;
  mutable active : Scheduler.Iset.t;  (* the non-idle edges *)
  obs : Observer.t option;  (* the one observability test is in [step] *)
  mutable observed : Metrics.observe option;  (* set by the drain step *)
  mutable negative_installs : (string * R.Bag.t) list;  (* newest first *)
  mutable drained : bool;  (* the final probe found no new work *)
  (* the options read after [start] *)
  rv_period : int; local_literal_eval : bool option; batch_size : int;
  coalesce : bool; share_deltas : bool; track_scale : bool;
}

(* Engine steps after which a run is declared runaway. *)
let max_steps = 2_000_000

(* The one owner lookup: the site an update, schema change or query on
   [rel] routes to. With a single source every relation routes to it. *)
let route sites owner rel =
  if Array.length sites = 1 then 0
  else
    match Hashtbl.find_opt owner rel with
    | Some i -> i
    | None -> error "no source owns relation %s" rel

let merged_db sites =
  Array.fold_left
    (fun db site ->
      let sdb = Source_site.Source.db site.source in
      List.fold_left
        (fun db rel ->
          R.Db.add_relation ~contents:(R.Db.contents sdb rel) db
            (R.Db.schema sdb rel))
        db (R.Db.relation_names sdb))
    R.Db.empty sites

let snapshot_view st vi =
  let v = st.views.(vi) in
  match st.vsite.(vi) with
  | Some i -> R.Viewdef.eval (Source_site.Source.db st.sites.(i).source) v
  | None -> R.Viewdef.eval (merged_db st.sites) v

(* The oracle's windowed lens: the snapshot array stays unwindowed (the
   delta programs maintain the full view), and the window filter is
   applied at every reporting boundary — trace states, staleness
   samples, final states — so windowed runs are judged
   windowed-vs-windowed. *)
let windowed oracle_win name b =
  match Hashtbl.find_opt oracle_win name with
  | Some w -> Window.filter w b
  | None -> b

let oracle_view st vi = windowed st.oracle_win st.vname.(vi) st.snap.(vi)

(* The views [vis] (ascending) in groups: each view joins the first
   group whose first view it shares a program with, and there the class
   of its first equal definition, or a class of its own. *)
let group_views (views : R.Viewdef.t array) vis =
  let same_projections (a : R.Viewdef.t) (b : R.Viewdef.t) =
    List.equal
      (fun (_, (va : R.View.t)) (_, (vb : R.View.t)) ->
        R.Attr.equal_list va.R.View.proj vb.R.View.proj)
      a.R.Viewdef.parts b.R.Viewdef.parts
  in
  let add groups vi =
    let v = views.(vi) in
    let rec into = function
      | [] -> [ [ [ vi ] ] ]
      | (((w :: _) :: _) as classes) :: rest
        when R.Delta_program.shareable views.(w) v ->
        let rec join = function
          | [] -> [ [ vi ] ]
          | ((w :: _) as c) :: cs when same_projections views.(w) v ->
            (c @ [ vi ]) :: cs
          | c :: cs -> c :: join cs
        in
        join classes :: rest
      | g :: rest -> g :: into rest
    in
    into groups
  in
  List.map
    (fun classes ->
      let classes = Array.of_list (List.map Array.of_list classes) in
      { classes; acc = Array.make (Array.length classes) R.Bag.empty;
        program = None })
    (List.fold_left add [] vis)

(* [f vi first] for every view [vi] of a class but its first, [first]. *)
let iter_twins f groups =
  List.iter
    (fun g ->
      Array.iter
        (fun c -> Array.iteri (fun m vi -> if m > 0 then f vi c.(0)) c)
        g.classes)
    groups

(* Oracle advance over one update-class run (same relation and kind),
   already executed at site [i]. Every delta term binds the updated
   relation's slot to literals — it never reads that relation from the
   database — and the run touches no other relation, so each update's
   delta is the same whether evaluated mid-run or at the end; summing
   them through one [apply_shared] pass gives the identical final
   snapshot a per-update loop reaches. Each group makes one pass for all
   its views, and every view of a class gets its class's bag. Cross-source
   views are an opt-in anomaly demonstration, not a performance path:
   they are recomputed from the merged state. *)
let advance_snapshots_run st i (us : R.Update.t list) =
  match us with
  | [] -> ()
  | first :: _ ->
    let tuples = List.map (fun (u : R.Update.t) -> u.R.Update.tuple) us in
    let db = Source_site.Source.db st.sites.(i).source in
    List.iter
      (fun g ->
        let staged =
          match g.program with
          | Some p -> p
          | None ->
            let p =
              R.Delta_program.stage_shared
                (Array.to_list (Array.map (fun c -> st.views.(c.(0))) g.classes))
            in
            g.program <- Some p;
            p
        in
        match R.Delta_program.of_update staged first with
        | None -> ()
        | Some prog ->
          let classes = g.classes and acc = g.acc in
          for j = 0 to Array.length classes - 1 do
            acc.(j) <- st.snap.(classes.(j).(0))
          done;
          R.Delta_program.apply_shared prog db tuples acc;
          for j = 0 to Array.length classes - 1 do
            let c = classes.(j) in
            for m = 0 to Array.length c - 1 do
              st.snap.(c.(m)) <- acc.(j)
            done
          done)
      st.site_groups.(i);
    List.iter (fun vi -> st.snap.(vi) <- snapshot_view st vi) st.cross_views

(* The named oracle states of the views [vis], in the order given. *)
let oracle_views st vis =
  List.map (fun vi -> (st.vname.(vi), oracle_view st vi)) vis

(* Incrementally maintained scheduling state: the ready sets the
   scheduler picks from, and the set of non-idle edges the tick handler
   walks. Every edge mutation (send, receive, tick) is followed by a
   [refresh_edge] of exactly the touched edges, so one step costs
   O(active edges), never O(N) — the property that lets this loop drive
   hundreds of sources. *)
let refresh_edge st i =
  let net = st.sites.(i).net and c = st.c in
  Scheduler.Ready.set_source st.ready i
    (Messaging.Network.can_receive net Messaging.Network.To_source);
  Scheduler.Ready.set_warehouse st.ready i
    (Messaging.Network.can_receive net Messaging.Network.To_warehouse);
  let load = Messaging.Network.load net in
  Scheduler.Ready.set_load st.ready i load;
  if load > c.inflight_max then c.inflight_max <- load;
  if Messaging.Network.idle net then
    st.active <- Scheduler.Iset.remove i st.active
  else begin
    st.active <- Scheduler.Iset.add i st.active;
    if st.track_scale then begin
      let n = Scheduler.Iset.cardinal st.active in
      if n > c.active_max then c.active_max <- n
    end
  end

let refresh_update st =
  let i = match st.pending with [] -> -1 | (i, _) :: _ -> i in
  Scheduler.Ready.set_update st.ready (i >= 0);
  Scheduler.Ready.set_update_site st.ready i

(* An installed view state with net-negative counts witnesses an
   over-deletion anomaly; correct algorithms never produce one. Most
   entries install nothing, and build no closure to say so. *)
let watch_installs st = function
  | [] -> ()
  | installs ->
    List.iter
      (fun (name, states) ->
        List.iter
          (fun mv ->
            if R.Bag.has_negative mv then
              st.negative_installs <- (name, mv) :: st.negative_installs)
          states)
      installs

(* Send each query to the source owning its relations; returns the
   (gid, site) of each. *)
let ship_queries st queries =
  List.map
    (fun (gid, q) ->
      let i =
        if Array.length st.sites = 1 then 0
        else
          match R.Query.base_relations q with
          | rel :: _ -> route st.sites st.owner rel
          | [] -> 0  (* all-literal queries can go anywhere; pick the first *)
      in
      let msg = Messaging.Message.Query { id = gid; query = q } in
      st.c.queries_sent <- st.c.queries_sent + 1;
      st.c.query_bytes <- st.c.query_bytes + Messaging.Message.byte_size msg;
      Messaging.Network.send st.sites.(i).net Messaging.Network.To_source msg;
      refresh_edge st i;
      (gid, i))
    queries

(* The effects of a source event or receive at site [i]. *)
let at i entry = { Observer.no_effects with edge = i; entry = Some entry }

(* After a schema change rewrote views of site [i]: group its views
   afresh, their programs restaged on next use, and let every view of a
   class share its first view's snapshot again — equal definitions over
   one state. *)
let regroup st i =
  let groups = group_views st.views st.site_views.(i) in
  iter_twins (fun vi first -> st.snap.(vi) <- st.snap.(first)) groups;
  st.site_groups.(i) <- groups

(* A schema change at source [i]: apply it to the base relations,
   rewrite the oracle's definitions of every affected view and regroup
   the site, and notify the warehouse with a
   [Ddl_note] on the owning edge. On a FIFO edge the note precedes
   every later message, so the warehouse always rebuilds before any
   tombstone answer arrives — the order raw faulty channels may
   break. *)
let source_ddl st i (d : R.Update.ddl) =
  let affected =
    List.filter
      (fun vi -> R.Evolve.affects st.views.(vi) d)
      (List.init (Array.length st.views) Fun.id)
  in
  (try
     Source_site.Source.execute_ddl st.sites.(i).source d;
     List.iter
       (fun vi ->
         st.views.(vi) <- R.Evolve.viewdef st.views.(vi) d;
         Option.iter
           (fun w -> Window.rebuild w st.views.(vi))
           (Hashtbl.find_opt st.oracle_win st.vname.(vi));
         st.snap.(vi) <- snapshot_view st vi)
       affected;
     if affected <> [] then regroup st i
   with R.Evolve.Evolve_error msg | R.Db.Db_error msg ->
     error "schema change %s rejected: %s" (R.Update.ddl_to_string d) msg);
  st.c.ddl_applied <- st.c.ddl_applied + 1;
  Messaging.Network.send st.sites.(i).net Messaging.Network.To_warehouse
    (Messaging.Message.Ddl_note d);
  at i (Trace.Source_ddl { ddl = d; source_views = oracle_views st affected })

(* The updates of one source event, taken off [pending] and numbered: up
   to [batch_size] consecutive updates of source [i] (a batch never spans
   sources), then with [coalesce] every further consecutive update of the
   same relation and kind — one update-class run that ships as a single
   [Batch_note] down the compiled [apply_batch] path. Only exact
   same-class neighbors coalesce, so the notification's event semantics
   (one atomic batch at one source) are unchanged. *)
let take_batch st i first =
  let c = st.c in
  let rec absorb k (prev : R.Update.t) acc =
    match st.pending with
    | (j, `U (u : R.Update.t)) :: rest
      when j = i
           && (k < st.batch_size
              || st.coalesce
                 && String.equal u.R.Update.rel prev.R.Update.rel
                 && u.R.Update.kind = prev.R.Update.kind) ->
      st.pending <- rest;
      if k >= st.batch_size then begin
        if k = st.batch_size then
          c.coalesced_batches <- c.coalesced_batches + 1;
        c.coalesced_notes <- c.coalesced_notes + 1
      end;
      st.next_seq <- st.next_seq + 1;
      let u =
        if u.R.Update.seq = 0 then R.Update.with_seq st.next_seq u else u
      in
      absorb (k + 1) u (u :: acc)
    | _ -> List.rev acc
  in
  absorb 0 first []

(* A DML event at source [i]: execute the batch one update-class run at
   a time, advancing every snapshot once per run, then notify the
   warehouse once. An update the source rejects aborts the run. *)
let source_batch st i first =
  let batch = take_batch st i first in
  let site = st.sites.(i) in
  List.iter
    (fun run ->
      List.iter
        (fun u ->
          try Source_site.Source.execute_update site.source u
          with R.Db.Db_error msg | R.Schema.Schema_error msg ->
            error "site %s rejected update %s: %s" site.spec_name
              (R.Update.to_string u) msg)
        run;
      advance_snapshots_run st i run)
    (R.Delta_program.runs batch);
  if Hashtbl.length st.oracle_win > 0 then
    List.iter
      (fun u ->
        Hashtbl.iter (fun _ w -> Window.observe_update w u) st.oracle_win)
      batch;
  let note =
    match batch with
    | [ u ] -> Messaging.Message.Update_note u
    | us -> Messaging.Message.Batch_note us
  in
  Messaging.Network.send site.net Messaging.Network.To_warehouse note;
  st.c.executed <- st.c.executed + List.length batch;
  (* The views an update at site [i] can change — the site's own and
     every cross-source view, in catalog order. Only these appear in the
     entry, so per-source state sequences stay per-source. *)
  let affected = List.merge Int.compare st.site_views.(i) st.cross_views in
  at i
    (Trace.Source_update
       { updates = batch; source_views = oracle_views st affected })

(* Handler of a source event: the next workload item's source executes
   it atomically — a schema change always alone, never batched or
   coalesced with DML. *)
let source_event st =
  match st.pending with
  | [] -> raise (Engine_error "source event with an empty workload")
  | (i, item) :: rest ->
    let fx =
      match item with
      | `D d ->
        st.pending <- rest;
        source_ddl st i d
      | `U u -> source_batch st i u
    in
    refresh_edge st i;
    refresh_update st;
    fx

(* Handler of a source receive: answer one query against the source's
   current state and send the answer back on the same edge. *)
let source_receive st i =
  let site = st.sites.(i) in
  match Messaging.Network.receive site.net Messaging.Network.To_source with
  | None -> raise (Engine_error "source_receive on empty channel")
  | Some (Messaging.Message.Query { id; query }) ->
    let answer, cost = Source_site.Source.answer_query site.source ~id query in
    st.c.source_io <- st.c.source_io + cost.Storage.Cost.io;
    Messaging.Network.send site.net Messaging.Network.To_warehouse
      (Messaging.Message.Answer { id; answer; cost });
    refresh_edge st i;
    at i (Trace.Source_answer { gid = id; answer; cost })
  | Some _ -> raise (Engine_error "source received a non-query message")

(* The warehouse's rebuild callback for one schema change: rewrite the
   hosted definition and swap in an online-refreshing ECA instance (the
   universal rung — a view that sat on a cheaper rung is demoted until
   its next registration), re-wrapped in its window when the view is
   windowed. The refresh instance starts from an empty materialization
   and a full-view query; it never reads source state directly. *)
let rebuild_view st d vd =
  let vd' = R.Evolve.viewdef vd d in
  let cfg =
    Algorithm.Config.make ~rv_period:st.rv_period
      ?local_literal_eval:st.local_literal_eval ~view:vd' ~init_mv:R.Bag.empty
      ()
  in
  let inst, outcome = Eca.refresh cfg in
  let inst =
    match Hashtbl.find_opt st.wh_win vd'.R.Viewdef.name with
    | None -> inst
    | Some w ->
      Window.rebuild w vd';
      Window.wrap w inst
  in
  (vd', inst, outcome)

(* The effects of a warehouse reaction — to a message received at site
   [edge] or to a quiescence probe — once its queries have shipped. *)
let reacted ?owner ?entry st edge (r : Warehouse.reaction) =
  { Observer.edge; entry; shipped = ship_queries st r.Warehouse.queries; owner }

let note st i us (r : Warehouse.reaction) =
  reacted st i r
    ~entry:
      (Trace.Warehouse_note
         { updates = us; queries = r.Warehouse.queries;
           installs = r.Warehouse.installs })

(* Handler of a warehouse receive: one dispatch on the message kind. *)
let warehouse_receive st i =
  let wh = st.warehouse in
  let fx =
    match
      Messaging.Network.receive st.sites.(i).net Messaging.Network.To_warehouse
    with
    | None -> raise (Engine_error "warehouse_receive on empty channel")
    | Some (Messaging.Message.Update_note u) ->
      note st i [ u ] (Warehouse.handle_update wh u)
    | Some (Messaging.Message.Batch_note us) ->
      note st i us (Warehouse.handle_batch wh us)
    | Some (Messaging.Message.Answer { id; answer; cost }) ->
      let c = st.c in
      c.answers_received <- c.answers_received + 1;
      c.answer_tuples <- c.answer_tuples + cost.Storage.Cost.answer_tuples;
      c.answer_bytes <- c.answer_bytes + cost.Storage.Cost.answer_bytes;
      (* The owning view, read before [handle_answer] consumes the
         gid's route; a gid a schema change retired has none. *)
      let owner = Warehouse.gid_view wh id in
      let r = Warehouse.handle_answer wh ~gid:id answer in
      reacted ?owner st i r
        ~entry:
          (Trace.Warehouse_answer { gid = id; installs = r.Warehouse.installs })
    | Some (Messaging.Message.Ddl_note d) ->
      let r, rebuilt = Warehouse.apply_ddl wh d ~rebuild:(rebuild_view st d) in
      st.c.refresh_queries <-
        st.c.refresh_queries + List.length r.Warehouse.queries;
      reacted st i r
        ~entry:
          (Trace.Warehouse_ddl
             { ddl = d; rebuilt; queries = r.Warehouse.queries;
               installs = r.Warehouse.installs })
    | Some
        (( Messaging.Message.Query _ | Messaging.Message.Data _
         | Messaging.Message.Ack _ ) as msg) ->
      (* Misrouted: the warehouse records an anomaly and produces no
         reaction — nothing to trace. *)
      reacted st i (Warehouse.misrouted wh msg)
  in
  (* [ship_queries] already refreshed the edges it sent on; this edge's
     receive side changed too. *)
  refresh_edge st i;
  fx

(* Handler of a transport tick: messages are in flight but none is
   deliverable — delayed transmissions ripening, or reliability-layer
   frames awaiting acks/retransmission. Advance the transport clock of
   every busy edge one tick; the tick is a scheduler decision, so faulty
   runs stay deterministic. Idle edges are left alone: their clocks only
   matter relative to their own traffic — and the walk visits only the
   active set, not all N sites. *)
let tick st =
  Scheduler.Iset.iter
    (fun i ->
      let site = st.sites.(i) in
      Messaging.Network.tick site.net;
      site.ticks <- site.ticks + 1;
      refresh_edge st i)
    st.active;
  st.c.ticks <- st.c.ticks + 1

(* Handler of a quiescence probe on the drained graph (where RV flushes
   a partial period). Its entry is [None] when it produced no new
   work. *)
let quiescence_probe st =
  let r = Warehouse.quiesce st.warehouse in
  if r.Warehouse.queries = [] && r.Warehouse.installs = [] then
    reacted st (-1) r
  else
    reacted st (-1) r
      ~entry:
        (Trace.Quiesce_probe
           { queries = r.Warehouse.queries; installs = r.Warehouse.installs })

(* The options are parsed here once; [start] and [run] differ only in
   the continuation [k] applied to the initial state. *)
let with_options (k : state -> 'a) : 'a options =
 fun ?(schedule = Scheduler.Best_case) ?(rv_period = 1) ?(batch_size = 1)
     ?local_literal_eval ?(allow_cross_source = false) ?observe
     ?(share_deltas = false) ?(coalesce = false) ?(track_scale = false)
     ?(evolution = []) ?(windows = []) ~creator ~sites:specs ~views ~updates
     () ->
  if batch_size < 1 then raise (Engine_error "batch_size must be at least 1");
  if rv_period < 1 then raise (Engine_error "rv_period must be at least 1");
  if specs = [] then
    raise (Engine_error "a site graph needs at least one source");
  (* Reports, final states and the judge all key on the view name. *)
  let views = Array.of_list views in
  let nviews = Array.length views in
  let vname = Array.map (fun (v : R.Viewdef.t) -> v.R.Viewdef.name) views in
  let name_to_idx = Hashtbl.create (max 16 nviews) in
  Array.iteri
    (fun vi name ->
      if Hashtbl.mem name_to_idx name then
        error "view %s is defined twice" name;
      Hashtbl.replace name_to_idx name vi)
    vname;
  let sched =
    try Scheduler.create schedule
    with Scheduler.Schedule_error msg -> raise (Engine_error msg)
  in
  let sites =
    Array.of_list
      (List.map
         (fun s ->
           { spec_name = s.name;
             source = Source_site.Source.create ?catalog:s.catalog s.db;
             net =
               Messaging.Network.create ~name:s.name ~fault:s.fault
                 ~seed:s.fault_seed ~reliable:s.reliable ();
             ticks = 0 })
         specs)
  in
  let n = Array.length sites in
  (* Every relation belongs to exactly one source — the paper's federated
     setting assumes autonomous sources with disjoint schemas. *)
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun i site ->
      List.iter
        (fun rel ->
          if Hashtbl.mem owner rel then
            error "relation %s is owned by two sources" rel;
          Hashtbl.replace owner rel i)
        (R.Db.relation_names (Source_site.Source.db site.source)))
    sites;
  (* Bind each view to the unique source owning all its relations. With a
     single source every view trivially binds to it — including views
     whose queries mention no base relation at all, preserving the
     historical single-source driver's leniency. *)
  let vsite =
    Array.map
      (fun (v : R.Viewdef.t) ->
        if n = 1 then Some 0
        else
          let site_indices =
            List.sort_uniq Int.compare
              (List.map
                 (fun rel ->
                   match Hashtbl.find_opt owner rel with
                   | Some i -> i
                   | None ->
                     error "view %s uses unowned relation %s" v.R.Viewdef.name
                       rel)
                 (R.Viewdef.relation_names v))
          in
          match site_indices with
          | [ i ] -> Some i
          | _ when allow_cross_source -> None
          | _ ->
            error
              "view %s spans several sources; cross-source views need \
               coordinated compensation and are future work here as in the \
               paper (opt into the demonstrably unsafe fetch-join strategy \
               with ~allow_cross_source)"
              v.R.Viewdef.name)
      views
  in
  (* Per-site view index lists (ascending = [views] order) plus the
     cross-source views, and each site's views in oracle groups. *)
  let site_views = Array.make n [] and cross_views = ref [] in
  for vi = nviews - 1 downto 0 do
    match vsite.(vi) with
    | Some i -> site_views.(i) <- vi :: site_views.(i)
    | None -> cross_views := vi :: !cross_views
  done;
  let site_groups = Array.map (group_views views) site_views in
  let configs =
    Array.mapi
      (fun vi v ->
        let db =
          match vsite.(vi) with
          | Some i -> Source_site.Source.db sites.(i).source
          | None -> merged_db sites
        in
        Algorithm.Config.of_db ~rv_period ?local_literal_eval v db)
      views
  in
  (* A view whose definition equals an earlier one's, up to its name,
     takes that view's initial state: one object for the oracle and the
     instances of both. *)
  Array.iter
    (iter_twins (fun vi first ->
         configs.(vi) <-
           { configs.(vi) with
             Algorithm.Config.init_mv = configs.(first).Algorithm.Config.init_mv }))
    site_groups;
  (* Windowed views: one Window.state drives the warehouse-side wrapper
     (watermark advanced by *delivered* notifications) and an independent
     one windows the centralized oracle (watermark advanced at source
     execution). Under reliable delivery the two watermarks agree at
     every quiescent point; under raw faulty channels they may diverge —
     exactly the divergence the consistency checkers then witness. *)
  let wh_win = Hashtbl.create 8 and oracle_win = Hashtbl.create 8 in
  List.iter
    (fun (name, spec) ->
      match Hashtbl.find_opt name_to_idx name with
      | None -> error "window declared for unknown view %s" name
      | Some vi ->
        let ow = Window.make spec views.(vi) in
        Window.init_watermark ow configs.(vi).Algorithm.Config.init_mv;
        Hashtbl.replace wh_win name (Window.make spec views.(vi));
        Hashtbl.replace oracle_win name ow)
    windows;
  let creator cfg =
    let inst = creator cfg in
    match
      Hashtbl.find_opt wh_win cfg.Algorithm.Config.view.R.Viewdef.name
    with
    | None -> inst
    | Some w -> Window.wrap w inst
  in
  let warehouse =
    Warehouse.create ~share:share_deltas ~creator (Array.to_list configs)
  in
  (* With DDLs in the stream, a faulty channel can deliver a notification
     before the Ddl_note explaining its new shape — arm the warehouse's
     schema screen up front, not at the first (possibly late) note. *)
  if evolution <> [] then Warehouse.enable_ddl_guard warehouse;
  (* The oracle starts from each view's [init_mv]: the configs evaluated
     it over the same initial state, and sharing the object lets the
     judge's first confirmation start from physically equal states. *)
  let snap = Array.map (fun c -> c.Algorithm.Config.init_mv) configs in
  let oracle vi = windowed oracle_win vname.(vi) snap.(vi) in
  let initial vi = (vname.(vi), oracle vi) in
  let trace = Trace.create ~initial_views:(List.init nviews initial) in
  (* The workload item stream: DML updates woven with the scheduled
     schema changes. A change at position [p] fires after [p] updates
     have been applied; with no [evolution] the stream is exactly the
     update list and the run is byte-identical to a pre-evolution one.
     Each item is routed to its site here, once, so an item on a
     relation no source owns fails [start] wherever it sits. *)
  let items =
    let rec weave applied ups evo acc =
      match (evo, ups) with
      | (p, d) :: evo', _ when p <= applied ->
        weave applied ups evo' (`D d :: acc)
      | _, u :: ups' -> weave (applied + 1) ups' evo (`U u :: acc)
      | _, [] -> List.rev_append acc (List.map (fun (_, d) -> `D d) evo)
    in
    List.map
      (fun item ->
        let rel =
          match item with
          | `U (u : R.Update.t) -> u.R.Update.rel
          | `D d -> R.Update.ddl_rel d
        in
        (route sites owner rel, item))
      (weave 0 updates
         (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) evolution)
         [])
  in
  let obs =
    Option.map
      (fun oc ->
        Observer.create oc
          ~sites:(Array.map (fun site -> site.spec_name) sites)
          ~views:vname ~oracle warehouse)
      observe
  in
  let st =
    { sched; sites; owner; views; vname; vsite; site_views; site_groups;
      cross_views = !cross_views; wh_win; oracle_win; warehouse; snap;
      trace; pending = items; next_seq = 0;
      c =
        { steps = 0; ticks = 0; executed = 0; queries_sent = 0; query_bytes = 0;
          source_io = 0; answers_received = 0; answer_tuples = 0;
          answer_bytes = 0; ddl_applied = 0; refresh_queries = 0;
          inflight_max = 0; active_max = 0; coalesced_notes = 0;
          coalesced_batches = 0 };
      ready = Scheduler.Ready.create n; active = Scheduler.Iset.empty; obs;
      observed = None;
      negative_installs = []; drained = false;
      rv_period; local_literal_eval; batch_size; coalesce; share_deltas;
      track_scale }
  in
  refresh_update st;
  k st

let start = with_options Fun.id

let step st =
  if st.drained then None
  else begin
    st.c.steps <- st.c.steps + 1;
    if st.c.steps > max_steps then
      raise (Engine_error "simulation exceeded max_steps");
    let ev =
      match Scheduler.pick_ready st.sched st.ready with
      | Some ev -> Pick ev
      | None when not (Scheduler.Iset.is_empty st.active) -> Tick
      | None -> Probe
    in
    let fx =
      match ev with
      | Pick Scheduler.Apply -> source_event st
      | Pick (Scheduler.Site_source i) -> source_receive st i
      | Pick (Scheduler.Site_warehouse i) -> warehouse_receive st i
      | Tick ->
        tick st;
        Observer.no_effects
      | Probe ->
        let fx = quiescence_probe st in
        st.drained <- fx.Observer.entry = None;
        fx
    in
    (match fx.Observer.entry with
    | Some entry ->
      Trace.record st.trace entry;
      watch_installs st (Trace.installs_of entry)
    | None -> ());
    (match st.obs with
    | Some o ->
      Observer.step o ~now:st.c.steps ev fx;
      if st.drained then
        st.observed <- Some (Observer.finish o ~now:st.c.steps)
    | None -> ());
    Some ev
  end

let finish st : result =
  while Option.is_some (step st) do () done;
  let c = st.c in
  let site_delivery =
    Array.to_list
      (Array.map
         (fun site ->
           let r = Messaging.Network.reliability site.net in
           let rel f = Option.fold ~none:0 ~some:f r in
           ( site.spec_name,
             { Metrics.ticks = site.ticks;
               retransmits = rel (fun s -> s.Messaging.Reliable.retransmits);
               dups_dropped = rel (fun s -> s.Messaging.Reliable.dups_dropped);
               acks = rel (fun s -> s.Messaging.Reliable.acks_sent);
               msgs_dropped = Messaging.Network.total_dropped site.net;
               msgs_duplicated = Messaging.Network.total_duplicated site.net;
               delivered = rel (fun s -> s.Messaging.Reliable.delivered);
               latency_total = rel (fun s -> s.Messaging.Reliable.latency_total);
               latency_max = rel (fun s -> s.Messaging.Reliable.latency_max);
               wire_messages = Messaging.Network.total_messages site.net;
               wire_bytes = Messaging.Network.total_bytes site.net } ))
         st.sites)
  in
  let delivery =
    { (List.fold_left
         (fun acc (_, d) -> Metrics.add_delivery acc d)
         Metrics.no_delivery site_delivery)
      with Metrics.ticks = c.ticks }
  in
  let shared =
    if not st.share_deltas then None
    else
      let shared_evaluated, shared_hits, shared_fanout =
        Warehouse.shared_counters st.warehouse
      in
      Some { Metrics.shared_evaluated; shared_hits; shared_fanout }
  in
  let evolution =
    if c.ddl_applied = 0 && Hashtbl.length st.wh_win = 0 then None
    else
      let views_rebuilt, retired_answers =
        Warehouse.evolution_counters st.warehouse
      in
      (* [wh_win] holds the states the window wrappers share; they
         survive rebuilds. *)
      let win_pruned_terms, win_local_answers, win_aged_partitions =
        Hashtbl.fold
          (fun _ w (p, l, a) ->
            let p', l', a' = Window.counters w in
            (p + p', l + l', a + a'))
          st.wh_win (0, 0, 0)
      in
      Some
        { Metrics.ddl_applied = c.ddl_applied; views_rebuilt;
          refresh_queries = c.refresh_queries;
          stale_answers =
            Array.fold_left
              (fun acc site ->
                acc + Source_site.Source.stale_answers site.source)
              0 st.sites;
          retired_answers; win_pruned_terms; win_local_answers;
          win_aged_partitions }
  in
  let metrics =
    { Metrics.updates = c.executed; queries_sent = c.queries_sent;
      answers_received = c.answers_received; answer_tuples = c.answer_tuples;
      answer_bytes = c.answer_bytes; query_bytes = c.query_bytes;
      source_io = c.source_io; steps = c.steps; delivery; site_delivery;
      observe = st.observed; shared;
      scale =
        (if not st.track_scale then None
         else
           Some
             { Metrics.inflight_max = c.inflight_max;
               coalesced_notes = c.coalesced_notes;
               coalesced_batches = c.coalesced_batches;
               active_max = c.active_max });
      selfmaint = Warehouse.selfmaint_counters st.warehouse; evolution }
  in
  let reports =
    List.map
      (fun (name, (source_states, warehouse_states)) ->
        (name, Consistency.check ~source_states ~warehouse_states))
      (Trace.states st.trace (Array.to_list st.vname))
  in
  { trace = st.trace; metrics; reports;
    final_mvs = Warehouse.mvs st.warehouse;
    final_source_views =
      oracle_views st (List.init (Array.length st.views) Fun.id);
    negative_installs = List.rev st.negative_installs;
    sources =
      Array.to_list
        (Array.map (fun site -> (site.spec_name, site.source)) st.sites);
    warehouse_anomalies = Warehouse.anomalies st.warehouse }

let run = with_options finish
