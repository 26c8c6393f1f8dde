module R = Relational

type hosted = {
  mutable view : R.Viewdef.t;
  mutable inst : Algorithm.instance;
      (* both mutable: a source schema change mid-stream rewrites the
         view definition and swaps in a freshly initializing instance *)
}

(* Queries are routed by globally unique ids. Without sharing every gid
   has exactly one subscriber — the instance that sent it. With
   [share = true] (the MQO path, DESIGN.md §4h) a gid may carry several
   subscribers: when, inside one atomic warehouse event, two *distinct*
   instances produce structurally equal queries (confirmed by
   [Query.equal] after a [Query.signature] match), only the first is
   shipped and the rest subscribe to its answer. Sharing never spans
   events — the source database can change between events, so two equal
   queries from different events can have different answers. *)
type t = {
  hosted : hosted array;
  routes : (int, (int * int) * (int * int) list) Hashtbl.t;
      (* gid -> (owner, later subscribers newest-first); subscribing is
         an O(1) cons, readers rebuild the owner-first order *)
  share : bool;
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

let create ?(share = false) pairs =
  let hosted =
    Array.of_list (List.map (fun (view, inst) -> { view; inst }) pairs)
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

let of_creator ?share ~creator ~configs () =
  create ?share
    (List.map (fun cfg -> (cfg.Algorithm.Config.view, creator cfg)) configs)

let mv t name =
  let rec find i =
    if i >= Array.length t.hosted then None
    else if String.equal t.hosted.(i).view.R.Viewdef.name name then
      Some (t.hosted.(i).inst.Algorithm.mv ())
    else find (i + 1)
  in
  find 0

let mvs t =
  Array.to_list
    (Array.map
       (fun h -> (h.view.R.Viewdef.name, h.inst.Algorithm.mv ()))
       t.hosted)

let quiescent t =
  Array.for_all (fun h -> h.inst.Algorithm.quiescent ()) t.hosted

let algorithms t =
  Array.to_list
    (Array.map
       (fun h -> (h.view.R.Viewdef.name, h.inst.Algorithm.name))
       t.hosted)

let shared_counters t = (t.shared_evaluated, t.shared_hits, t.shared_fanout)

(* Fold the hosted instances' algorithm-specific counters into the
   self-maintenance metrics block; [None] when no instance reports any,
   so runs without an ECA-SM rung keep their output byte-identical. *)
let selfmaint_counters t =
  let get k c = Option.value ~default:0 (List.assoc_opt k c) in
  let is_sm (k, _) = String.length k > 3 && String.equal (String.sub k 0 3) "sm_" in
  let any = ref false in
  let s, a, f, v, tu, b =
    Array.fold_left
      (fun ((s, a, f, v, tu, b) as acc) h ->
        match h.inst.Algorithm.counters () with
        | c when not (List.exists is_sm c) ->
          (* window wrappers also report counters; only sm_* keys mean a
             self-maintenance rung is hosted *)
          acc
        | c ->
          any := true;
          ( s + get "sm_self" c,
            a + get "sm_aux" c,
            f + get "sm_fallback" c,
            v + get "sm_aux_views" c,
            tu + get "sm_aux_tuples" c,
            b + get "sm_aux_bytes" c ))
      (0, 0, 0, 0, 0, 0) t.hosted
  in
  if not !any then None
  else
    Some
      {
        Metrics.sm_self = s;
        sm_aux = a;
        sm_fallback = f;
        sm_aux_views = v;
        sm_aux_tuples = tu;
        sm_aux_bytes = b;
      }

(* Looked up while the gid's route is still live — i.e. before
   [handle_answer] consumes it — so the observability layer can tag a
   query span with its owning view. A shared gid is labelled by its
   owner, the instance that actually shipped the query. *)
let gid_view t gid =
  match Hashtbl.find_opt t.routes gid with
  | None -> None
  | Some ((idx, _), _) ->
    let h = t.hosted.(idx) in
    Some (h.view.R.Viewdef.name, h.inst.Algorithm.name)

let gid_subscribers t gid =
  match Hashtbl.find_opt t.routes gid with
  | None -> []
  | Some (owner, extras_rev) ->
    List.map
      (fun (idx, _) ->
        let h = t.hosted.(idx) in
        (h.view.R.Viewdef.name, h.inst.Algorithm.name))
      (owner :: List.rev extras_rev)

(* The per-event shared-delta table: query signature -> candidates
   shipped earlier in the same event, oldest first. [None] when sharing
   is off — the zero-cost path, byte-identical to the pre-MQO
   warehouse. *)
type event_table = (int, (R.Query.t * int * int) list ref) Hashtbl.t

let lift ?event t idx (o : Algorithm.outcome) =
  let queries =
    List.filter_map
      (fun (lid, q) ->
        let ship () =
          let gid = t.next_gid in
          t.next_gid <- gid + 1;
          Hashtbl.replace t.routes gid ((idx, lid), []);
          (match event with
          | None -> ()
          | Some tbl -> (
            let sg = R.Query.signature q in
            match Hashtbl.find_opt tbl sg with
            | Some bucket -> bucket := (q, gid, idx) :: !bucket
            | None -> Hashtbl.add tbl sg (ref [ (q, gid, idx) ])));
          Some (gid, q)
        in
        match event with
        | None -> ship ()
        | Some tbl -> (
          match Hashtbl.find_opt tbl (R.Query.signature q) with
          | None -> ship ()
          | Some bucket -> (
            (* Oldest candidate from a *different* instance: sharing only
               across distinct views keeps every single-view lifecycle —
               and so the catalog-of-one — exactly as without MQO. *)
            let candidate =
              List.find_opt
                (fun (q', _, owner) -> owner <> idx && R.Query.equal q' q)
                (List.rev !bucket)
            in
            match candidate with
            | None -> ship ()
            | Some (_, gid, _) -> (
              (* Total lookup: the candidate's route should still be live
                 (sharing never spans events, and routes are only consumed
                 by answers), but if it is not — say a schema change
                 retired it inside this very event — ship a private copy
                 and log the oddity instead of dying on [Not_found]. *)
              match Hashtbl.find_opt t.routes gid with
              | None ->
                t.anomalies <-
                  Printf.sprintf
                    "shared-delta candidate Q%d has no live route; shipping \
                     a private copy"
                    gid
                  :: t.anomalies;
                ship ()
              | Some (owner, extras_rev) ->
                Hashtbl.replace t.routes gid (owner, (idx, lid) :: extras_rev);
                t.shared_hits <- t.shared_hits + 1;
                if extras_rev = [] then
                  t.shared_evaluated <- t.shared_evaluated + 1;
                None))))
      o.Algorithm.send
  in
  let name = t.hosted.(idx).view.R.Viewdef.name in
  {
    queries;
    installs =
      (if o.Algorithm.installs = [] then []
       else [ (name, o.Algorithm.installs) ]);
  }

let merge a b = { queries = a.queries @ b.queries; installs = a.installs @ b.installs }

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
  let outcomes =
    List.map
      (fun idx -> try Ok (f idx) with R.Db.Db_error msg -> Error msg)
      targets
  in
  List.fold_left2
    (fun acc idx o ->
      match o with
      | Ok o -> merge acc (lift ?event t idx o)
      | Error msg ->
        t.anomalies <-
          Printf.sprintf "view %s rejected a notification: %s; dropped"
            t.hosted.(idx).view.R.Viewdef.name msg
          :: t.anomalies;
        acc)
    no_reaction targets outcomes

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

(* Fan one answer out to every subscriber, owner first. The answer is
   correct for all of them: subscription required structural equality at
   ship time, and the source evaluated the single shipped message, so
   every subscriber's query is answered against the same source state it
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
  | Some (owner, extras_rev) ->
    Hashtbl.remove t.routes gid;
    let subs = owner :: List.rev extras_rev in
    (match subs with
    | _ :: _ :: _ -> t.shared_fanout <- t.shared_fanout + List.length subs
    | _ -> ());
    let event = fresh_event t in
    List.fold_left
      (fun acc (idx, lid) ->
        merge acc
          (lift ?event t idx
             (t.hosted.(idx).inst.Algorithm.on_answer ~id:lid answer)))
      no_reaction subs

(* Dispatch is total: a message of a kind the warehouse never legitimately
   receives — a query echoed back, or a protocol frame leaking past the
   reliability sublayer — is recorded as an anomaly and ignored rather
   than crashing the site. A warehouse is a long-running service; one
   misrouted message must not take down every hosted view. *)
let anomaly t reason msg =
  t.anomalies <-
    Format.asprintf "%s: %a" reason Messaging.Message.pp msg :: t.anomalies;
  no_reaction

let handle_message t msg =
  match msg with
  | Messaging.Message.Update_note u -> handle_update t u
  | Messaging.Message.Batch_note us -> handle_batch t us
  | Messaging.Message.Answer { id; answer; cost = _ } ->
    handle_answer t ~gid:id answer
  | Messaging.Message.Query _ ->
    anomaly t "warehouses do not receive queries" msg
  | Messaging.Message.Ddl_note _ ->
    (* Schema changes need the engine-provided rebuild callback; the
       event loop routes them through [apply_ddl], never through the
       plain dispatcher. *)
    anomaly t "schema changes are applied via apply_ddl" msg
  | Messaging.Message.Data _ | Messaging.Message.Ack _ ->
    anomaly t "protocol frame leaked past the reliability sublayer" msg

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
      Array.map (fun h -> if R.Evolve.affects h.view d then Some (rebuild h.view) else None)
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
    let all_routes =
      Hashtbl.fold (fun gid route acc -> (gid, route) :: acc) t.routes []
    in
    List.iter
      (fun (gid, (owner, extras_rev)) ->
        let subs = owner :: List.rev extras_rev in
        let live = List.filter (fun (idx, _) -> not affected.(idx)) subs in
        if List.compare_lengths live subs <> 0 then
          match live with
          | [] ->
            Hashtbl.remove t.routes gid;
            Hashtbl.replace t.retired gid ()
          | new_owner :: rest ->
            Hashtbl.replace t.routes gid (new_owner, List.rev rest))
      all_routes;
    let names = ref [] in
    let event = fresh_event t in
    let reaction =
      Array.to_list t.hosted
      |> List.mapi (fun idx h -> (idx, h))
      |> List.fold_left
           (fun acc (idx, h) ->
             match rebuilt.(idx) with
             | None -> acc
             | Some (view', inst', outcome) ->
               h.view <- view';
               h.inst <- inst';
               t.rebuilds <- t.rebuilds + 1;
               names := view'.R.Viewdef.name :: !names;
               merge acc (lift ?event t idx outcome)
           )
           no_reaction
    in
    (reaction, List.rev !names)
  end

let evolution_counters t = (t.rebuilds, t.retired_hits)

(* Aggregate the window wrappers' counters across hosted instances;
   [None] when no instance is windowed, keeping unwindowed runs
   byte-identical. *)
let window_counters t =
  let get k c = Option.value ~default:0 (List.assoc_opt k c) in
  let any = ref false in
  let p, l, a =
    Array.fold_left
      (fun ((p, l, a) as acc) h ->
        let c = h.inst.Algorithm.counters () in
        if not (List.mem_assoc "win_aged_partitions" c) then acc
        else begin
          any := true;
          ( p + get "win_pruned_terms" c,
            l + get "win_local_answers" c,
            a + get "win_aged_partitions" c )
        end)
      (0, 0, 0) t.hosted
  in
  if !any then Some (p, l, a) else None

let quiesce t =
  let all = List.init (Array.length t.hosted) Fun.id in
  react t all (fun idx -> t.hosted.(idx).inst.Algorithm.on_quiesce ())
