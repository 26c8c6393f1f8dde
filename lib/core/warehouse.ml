module R = Relational

type hosted = {
  mutable view : R.Viewdef.t;
  mutable inst : Algorithm.instance;
      (* both mutable: a source schema change mid-stream rewrites the
         view definition and swaps in a freshly initializing instance *)
}

(* One instance waiting on a query: its index, its local query id and,
   when the shipped query was widened for another subscriber, where its
   own columns sit in the shipped projection. [None] takes the answer as
   shipped. *)
type sub = {
  idx : int;
  lid : int;
  cols : int array option;
}

(* Queries are routed by globally unique ids. Without sharing every gid
   has exactly one subscriber — the instance that sent it. With
   [share = true] (the MQO path, DESIGN.md §4h) a gid may carry several
   subscribers: when, inside one atomic warehouse event, a *distinct*
   instance produces a query whose terms match a shipped query's terms
   up to projection (a [Query.signature] skeleton match, confirmed by
   [Query.equal] or [Query.widen]), it is not shipped; it subscribes to
   the shipped query, whose projection widens to cover its columns. An
   instance subscribes to a gid at most once, so each of its queries
   keeps its own answer. Sharing never spans events — the source
   database can change between events, so two equal queries from
   different events can have different answers. *)
type t = {
  hosted : hosted array;
  routes : (int, sub list) Hashtbl.t;
      (* gid -> subscribers in subscription order, owner first *)
  share : bool;
  widenings : R.Query.widenings;
      (* the widened projections of shared queries, built once per
         (shipped, rider) projection pair *)
  by_rel : (string, int list) Hashtbl.t;
      (* relation -> interested instance indices, ascending; instances
         with [interest = None] live in [all_notes] instead *)
  all_notes : int list;  (* indices reacting to every update, ascending *)
  retired : (int, unit) Hashtbl.t;
      (* gids whose routes were dropped by a schema change while their
         queries were in flight; their (empty) answers are absorbed
         silently — expected tombstones, not anomalies *)
  mutable next_gid : int;
  mutable anomalies : string list;  (* misrouted or rejected, newest first *)
  mutable rebuilds : int;  (* instances re-initialized by schema changes *)
  mutable retired_hits : int;  (* answers absorbed through [retired] *)
  mutable ddl_guard : bool;
      (* schema changes are in play: screen notifications against the
         hosted schemas (they may have reordered across a Ddl_note) *)
  (* shared-delta counters, all 0 when [share = false] *)
  mutable shared_evaluated : int;  (* shipped queries with >1 subscriber *)
  mutable shared_hits : int;  (* queries deduplicated away *)
  mutable shared_fanout : int;  (* answer deliveries through shared gids *)
}

type reaction = {
  queries : (int * R.Query.t) list;  (* (global id, query) to send *)
  installs : (string * R.Bag.t list) list;  (* per view, oldest first *)
}

let no_reaction = { queries = []; installs = [] }

let create ?(share = false) ~creator configs =
  let hosted =
    Array.of_list
      (List.map
         (fun cfg -> { view = cfg.Algorithm.Config.view; inst = creator cfg })
         configs)
  in
  (* Update-note dispatch index, built once: relation -> interested
     instances (an instance's [interest] is its promise that foreign
     updates are stateless no-ops). Indices are kept ascending so a
     dispatch visits instances in host order, exactly as the historical
     full fan-out did. *)
  let by_rel = Hashtbl.create 64 in
  let all_notes = ref [] in
  Array.iteri
    (fun idx h ->
      match h.inst.Algorithm.interest with
      | None -> all_notes := idx :: !all_notes
      | Some rels ->
        List.iter
          (fun rel ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_rel rel)
            in
            if not (List.mem idx prev) then
              Hashtbl.replace by_rel rel (idx :: prev))
          rels)
    hosted;
  Hashtbl.iter (fun rel idxs -> Hashtbl.replace by_rel rel (List.rev idxs))
    (Hashtbl.copy by_rel);
  {
    hosted;
    routes = Hashtbl.create 64;
    share;
    widenings = R.Query.widenings ();
    by_rel;
    all_notes = List.rev !all_notes;
    retired = Hashtbl.create 16;
    next_gid = 0;
    anomalies = [];
    rebuilds = 0;
    retired_hits = 0;
    ddl_guard = false;
    shared_evaluated = 0;
    shared_hits = 0;
    shared_fanout = 0;
  }

let mvs t =
  Array.to_list
    (Array.map
       (fun h -> (h.view.R.Viewdef.name, h.inst.Algorithm.mv ()))
       t.hosted)

let quiescent t =
  Array.for_all (fun h -> h.inst.Algorithm.quiescent ()) t.hosted

let view_quiescent t i = t.hosted.(i).inst.Algorithm.quiescent ()

let shared_counters t = (t.shared_evaluated, t.shared_hits, t.shared_fanout)

(* [None] unless some hosted instance (the ECA-SM rung) reports the
   block, so every other run's metrics stay byte-identical. *)
let selfmaint_counters t =
  Array.fold_left
    (fun acc h ->
      match (acc, h.inst.Algorithm.counters ()) with
      | None, c | c, None -> c
      | Some a, Some c ->
        Some
          {
            Metrics.sm_self = a.Metrics.sm_self + c.Metrics.sm_self;
            sm_aux = a.sm_aux + c.sm_aux;
            sm_fallback = a.sm_fallback + c.sm_fallback;
            sm_aux_views = a.sm_aux_views + c.sm_aux_views;
            sm_aux_tuples = a.sm_aux_tuples + c.sm_aux_tuples;
            sm_aux_bytes = a.sm_aux_bytes + c.sm_aux_bytes;
          })
    None t.hosted

let label t s =
  let h = t.hosted.(s.idx) in
  (h.view.R.Viewdef.name, h.inst.Algorithm.name)

(* Looked up while the gid's route is still live — i.e. before
   [handle_answer] consumes it — so the observability layer can tag a
   query span with its owning view. A shared gid is labelled by its
   owner, the instance that actually shipped the query. *)
let gid_view t gid =
  match Hashtbl.find_opt t.routes gid with
  | Some (owner :: _) -> Some (label t owner)
  | Some [] | None -> None

(* A query shipped in the current event; [query] widens as subscribers
   join, and the reaction carries its final form. *)
type shipped = {
  gid : int;
  mutable query : R.Query.t;
}

(* A reaction while an event folds: queries and installs newest-first,
   [finish] restores the order. *)
type acc = {
  shipped : shipped list;
  pending_installs : (string * R.Bag.t list) list;
}

let empty_acc = { shipped = []; pending_installs = [] }

(* The per-event shared-delta table: skeleton signature -> queries
   shipped earlier in the same event, newest first. [None] when sharing
   is off — the zero-cost path, byte-identical to the pre-MQO
   warehouse. *)
type event_table = (int, shipped list ref) Hashtbl.t

(* How instance [idx]'s query [q] can ride on [c], whose subscribers
   are [subs]: [Some (query, cols)] with [c]'s possibly widened query and
   [q]'s column map, [None] when it cannot. Sharing only across distinct
   views keeps every single-view lifecycle — and so the catalog-of-one —
   exactly as without MQO. *)
let join t idx subs c q =
  if List.exists (fun s -> s.idx = idx) subs then None
  else if R.Query.equal c.query q then Some (c.query, None)
  else
    Option.map
      (fun (query, cols) -> (query, Some cols))
      (R.Query.widen t.widenings ~shipped:c.query q)

(* Lift one instance's outcome onto [acc]. *)
let lift ?event t idx (o : Algorithm.outcome) acc =
  let ship lid q shipped =
    let gid = t.next_gid in
    t.next_gid <- gid + 1;
    Hashtbl.replace t.routes gid [ { idx; lid; cols = None } ];
    let c = { gid; query = q } in
    (match event with
    | None -> ()
    | Some tbl -> (
      let sg = R.Query.signature q in
      match Hashtbl.find_opt tbl sg with
      | Some bucket -> bucket := c :: !bucket
      | None -> Hashtbl.add tbl sg (ref [ c ])));
    c :: shipped
  in
  let share lid q shipped bucket =
    (* the oldest candidate that can carry [q]. Its route is live: it
       was made earlier in this fold, and no route goes during a fold *)
    let carry c =
      let subs = Hashtbl.find t.routes c.gid in
      Option.map (fun j -> (c, subs, j)) (join t idx subs c q)
    in
    match List.find_map carry (List.rev bucket) with
    | None -> ship lid q shipped
    | Some (c, subs, (query, cols)) ->
      let subs =
        if query == c.query then subs
        else begin
          (* Widened: the columns asked for so far stay a prefix, so
             subscribers that took the answer as shipped now take that
             prefix. *)
          let width = List.length (List.hd c.query).R.Term.proj in
          let pin s =
            if Option.is_some s.cols then s
            else { s with cols = Some (Array.init width Fun.id) }
          in
          c.query <- query;
          List.map pin subs
        end
      in
      Hashtbl.replace t.routes c.gid (subs @ [ { idx; lid; cols } ]);
      t.shared_hits <- t.shared_hits + 1;
      (match subs with
      | [ _ ] -> t.shared_evaluated <- t.shared_evaluated + 1
      | _ -> ());
      shipped
  in
  let shipped =
    List.fold_left
      (fun shipped (lid, q) ->
        match event with
        | None -> ship lid q shipped
        | Some tbl -> (
          match Hashtbl.find_opt tbl (R.Query.signature q) with
          | None -> ship lid q shipped
          | Some bucket -> share lid q shipped !bucket))
      acc.shipped o.Algorithm.send
  in
  let name = t.hosted.(idx).view.R.Viewdef.name in
  {
    shipped;
    pending_installs =
      (if o.Algorithm.installs = [] then acc.pending_installs
       else (name, o.Algorithm.installs) :: acc.pending_installs);
  }

let finish acc =
  {
    queries = List.rev_map (fun c -> (c.gid, c.query)) acc.shipped;
    installs = List.rev acc.pending_installs;
  }

let fresh_event t : event_table option =
  if t.share then Some (Hashtbl.create 16) else None

(* Sorted (ascending) merge of two dispatch index lists. *)
let rec merge_idx a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x < y then x :: merge_idx a' b
    else if y < x then y :: merge_idx a b'
    else x :: merge_idx a' b'

let all t = List.init (Array.length t.hosted) Fun.id

let interested t rel =
  Option.value ~default:[] (Hashtbl.find_opt t.by_rel rel)

let update_targets t (u : R.Update.t) =
  merge_idx t.all_notes (interested t u.R.Update.rel)

let batch_targets t us =
  (* union of the per-relation interest sets over the batch's distinct
     relations, plus the interest-everything instances *)
  List.fold_left
    (fun acc (u : R.Update.t) -> merge_idx acc (interested t u.R.Update.rel))
    t.all_notes us

(* Run one event handler per target instance and fold the reactions in
   host order, so gid assignment, the shared-delta event table and the
   anomaly log see outcomes in host order.

   An instance whose local state rejects the event — SC's replica
   refusing a duplicated or reordered notification from a raw faulty
   edge — raises [Db_error]. The fold records it as an anomaly naming
   the view and treats the target as [nothing]: one bad delivery must
   not take down every hosted view. *)
let react t targets f =
  let event = fresh_event t in
  finish
    (List.fold_left
       (fun acc idx ->
         match f idx with
         | o -> lift ?event t idx o acc
         | exception R.Db.Db_error msg ->
           t.anomalies <-
             Printf.sprintf "view %s rejected a notification: %s; dropped"
               t.hosted.(idx).view.R.Viewdef.name msg
             :: t.anomalies;
           acc)
       empty_acc targets)

(* A notification whose tuple no longer matches the hosted view's schema
   for its relation. Impossible on FIFO edges — the Ddl_note explaining
   the new arity travels the same channel as the updates on either side
   of it — but raw faulty channels reorder the two, and substituting the
   mismatched tuple into the view's terms would crash the site. Checked
   only once a rebuild has happened, so DDL-free runs pay nothing. *)
let schema_mismatch (h : hosted) (u : R.Update.t) =
  List.exists
    (fun ((_, v) : R.Sign.t * R.View.t) ->
      List.exists
        (fun (s : R.Schema.t) ->
          String.equal s.R.Schema.name u.R.Update.rel
          && R.Schema.arity s <> R.Tuple.arity u.R.Update.tuple)
        v.R.View.sources)
    h.view.R.Viewdef.parts

let enable_ddl_guard t = t.ddl_guard <- true

let drop_mismatched t targets u =
  if not t.ddl_guard then targets
  else
    List.filter
      (fun idx ->
        let h = t.hosted.(idx) in
        if schema_mismatch h u then begin
          t.anomalies <-
            Printf.sprintf
              "update %s does not match %s's current schema (notification \
               reordered across a schema change); dropped"
              (R.Update.to_string u)
              h.view.R.Viewdef.name
            :: t.anomalies;
          false
        end
        else true)
      targets

let handle_update t u =
  react t
    (drop_mismatched t (update_targets t u) u)
    (fun idx -> t.hosted.(idx).inst.Algorithm.on_update u)

let handle_batch t us =
  let targets =
    List.fold_left (fun acc u -> drop_mismatched t acc u) (batch_targets t us) us
  in
  react t targets (fun idx -> t.hosted.(idx).inst.Algorithm.on_batch us)

(* Fan one answer out to every subscriber, owner first, each projected
   through its column map. The answer is correct for all of them:
   subscription required their terms to match the shipped ones up to
   projection at ship time, projection distributes over a signed sum of
   terms, and the source evaluated the single shipped message, so every
   subscriber's query is answered against the same source state it
   would have seen had its own copy travelled in that message's place.
   Follow-up queries raised by the subscribers' reactions are themselves
   one event and may share again. *)
let handle_answer t ~gid answer =
  match Hashtbl.find_opt t.routes gid with
  | None ->
    if Hashtbl.mem t.retired gid then begin
      (* A schema change retired this route while the query was in
         flight; the source answered it empty (it straddles the change).
         Expected tombstone — absorb it and count it. *)
      Hashtbl.remove t.retired gid;
      t.retired_hits <- t.retired_hits + 1;
      no_reaction
    end
    else begin
      (* Historically this was a silent drop, which let genuinely
         misrouted or duplicated answers pass unnoticed — and a
         [Hashtbl.find] further down this path crashed the site when the
         MQO table was involved. Record it instead. *)
      t.anomalies <-
        Printf.sprintf
          "answer for unknown query id Q%d (stale or duplicate); dropped"
          gid
        :: t.anomalies;
      no_reaction
    end
  | Some subs ->
    Hashtbl.remove t.routes gid;
    (match subs with
    | _ :: _ :: _ -> t.shared_fanout <- t.shared_fanout + List.length subs
    | _ -> ());
    let event = fresh_event t in
    finish
      (List.fold_left
         (fun acc s ->
           let answer =
             match s.cols with
             | None -> answer
             | Some cols -> R.Bag.map_tuples (R.Tuple.project cols) answer
           in
           lift ?event t s.idx
             (t.hosted.(s.idx).inst.Algorithm.on_answer ~id:s.lid answer)
             acc)
         empty_acc subs)

(* A message the warehouse never legitimately receives — a query echoed
   back, or a protocol frame leaking past the reliability sublayer — is
   recorded as an anomaly and ignored rather than crashing the site: one
   misrouted message must not take down every hosted view. *)
let misrouted t msg =
  let reason =
    match msg with
    | Messaging.Message.Query _ -> "warehouses do not receive queries"
    | _ -> "protocol frame leaked past the reliability sublayer"
  in
  t.anomalies <-
    Format.asprintf "%s: %a" reason Messaging.Message.pp msg :: t.anomalies;
  no_reaction

let anomalies t = List.rev t.anomalies

(* A source schema change reached the warehouse. Every hosted view that
   mentions the changed relation is rewritten and its instance replaced
   by the [rebuild] callback (typically [Eca.refresh] over the evolved
   viewdef — online re-initialization, DESIGN.md §4k). In-flight routes
   lose their affected subscribers first: a route with no survivor is
   retired — its tombstone answer, when it arrives, is absorbed in
   [handle_answer] — while a shared route with an unaffected survivor
   promotes that survivor to owner. Unaffected views' in-flight queries
   never reference the changed relation (compensation terms only mention
   the owning view's relations), so their answers stay valid across the
   boundary and their routes survive untouched. *)
let apply_ddl t d ~rebuild =
  t.ddl_guard <- true;
  let affected = Array.map (fun h -> R.Evolve.affects h.view d) t.hosted in
  if not (Array.exists Fun.id affected) then (no_reaction, [])
  else begin
    (* Validate before committing: rebuild every affected definition
       first, so an inapplicable note leaves the site untouched. The
       source validated the change before sending the note, so this can
       only fire when a faulty channel duplicated or reordered notes —
       an anomaly to record, not a crash. *)
    match
      Array.mapi
        (fun idx h -> if affected.(idx) then Some (rebuild h.view) else None)
        t.hosted
    with
    | exception R.Evolve.Evolve_error msg ->
      t.anomalies <-
        Printf.sprintf
          "schema change %s is not applicable to the hosted views (%s; note \
           duplicated or reordered by the channel); dropped"
          (R.Update.ddl_to_string d) msg
        :: t.anomalies;
      (no_reaction, [])
    | rebuilt ->
    Hashtbl.filter_map_inplace
      (fun gid subs ->
        match List.filter (fun s -> not affected.(s.idx)) subs with
        | [] ->
          Hashtbl.replace t.retired gid ();
          None
        | live -> Some live)
      t.routes;
    let reaction =
      react t (all t) (fun idx ->
          match rebuilt.(idx) with
          | None -> Algorithm.nothing
          | Some (view', inst', outcome) ->
            t.hosted.(idx).view <- view';
            t.hosted.(idx).inst <- inst';
            t.rebuilds <- t.rebuilds + 1;
            outcome)
    in
    ( reaction,
      List.filter_map
        (Option.map (fun (view', _, _) -> view'.R.Viewdef.name))
        (Array.to_list rebuilt) )
  end

let evolution_counters t = (t.rebuilds, t.retired_hits)

let quiesce t =
  react t (all t) (fun idx -> t.hosted.(idx).inst.Algorithm.on_quiesce ())
