module R = Relational

(* A key-delete that happened while queries were pending: answers to
   queries sent before the delete (id < cutoff) may still carry view
   tuples derived from the deleted base tuple and must be filtered.

   This extends the paper's Section 5.4 description, whose Appendix C
   argument ("the query is executed at the source after the delete, so it
   does not see one of the key values") silently assumes the insert whose
   query is in flight targets a different relation than the delete. When
   an insert into r and a delete of the same r-tuple race the insert's
   query, that query carries the deleted tuple as a literal and its answer
   re-adds the tuple after the local key-delete. The tombstone is the
   minimal repair: it applies the key-delete to exactly the answers of
   queries that predate the delete. Queries issued after the delete get
   ids >= cutoff and are unaffected, so re-insertions of the same key
   survive. The regression test pins the exact counterexample.

   [matches] is the key-delete's test on view tuples, with the deleted
   tuple's key already read. *)
type tombstone = {
  matches : R.Tuple.t -> bool;
  cutoff : int;
}

type t = {
  view : R.View.t;
  mutable mv : R.Bag.t;
  mutable collect : Mview.Keyed.t;  (* working copy of MV, a set *)
  mutable uqs : int R.Fqueue.t;
  mutable next_id : int;
  mutable dirty : bool;  (* collect differs from mv *)
  mutable tombstones : tombstone list;  (* newest first *)
  key_match : (string * (R.Tuple.t -> R.Tuple.t -> bool)) list;
      (* per base relation, resolved once *)
}

(* The rung check [create] enforces, as a predicate the catalog's
   auto-rung ladder can consult without constructing an instance. *)
let applicable (vd : R.Viewdef.t) =
  match R.Viewdef.as_simple vd with
  | Some v -> R.View.covers_all_keys v
  | None -> false

let create (cfg : Algorithm.Config.t) =
  let view =
    match R.Viewdef.as_simple cfg.view with
    | Some v -> v
    | None ->
      raise
        (Algorithm.Not_applicable
           (Printf.sprintf
              "ECAK requires a simple SPJ view; %s is compound"
              cfg.view.R.Viewdef.name))
  in
  if not (R.View.covers_all_keys view) then
    raise
      (Algorithm.Not_applicable
         (Printf.sprintf
            "ECAK requires view %s to project a declared key of every base \
             relation"
            view.R.View.name));
  {
    view;
    mv = cfg.init_mv;
    collect =
      Mview.Keyed.create ~view ~rels:(R.View.relation_names view)
        (R.Bag.dedup_to_set cfg.init_mv);
    uqs = R.Fqueue.empty;
    next_id = 0;
    dirty = false;
    tombstones = [];
    key_match =
      List.map
        (fun rel -> (rel, Mview.key_match ~view ~rel))
        (R.View.relation_names view);
  }

let mv t = t.mv

let collect t = Mview.Keyed.bag t.collect

let quiescent t = R.Fqueue.is_empty t.uqs && not t.dirty

(* When UQS is empty the working copy replaces the view; COLLECT is not
   reset — it remains the working copy (step 5 of Section 5.4). *)
let maybe_install t =
  if R.Fqueue.is_empty t.uqs && t.dirty then begin
    t.mv <- Mview.Keyed.bag t.collect;
    t.dirty <- false;
    Algorithm.install t.mv
  end
  else Algorithm.nothing

let set_collect t (collect', changed) =
  t.collect <- collect';
  if changed then t.dirty <- true

let add_answer t answer = set_collect t (Mview.Keyed.add_dedup t.collect answer)

let on_update t (u : R.Update.t) =
  if not (R.View.mentions t.view u.R.Update.rel) then Algorithm.nothing
  else
    match u.R.Update.kind with
    | R.Update.Delete ->
      (* Handled locally: the projected key identifies exactly the view
         tuples derived from the deleted base tuple. *)
      set_collect t
        (Mview.Keyed.key_delete t.collect ~rel:u.R.Update.rel u.R.Update.tuple);
      if not (R.Fqueue.is_empty t.uqs) then
        t.tombstones <-
          {
            matches = List.assoc u.R.Update.rel t.key_match u.R.Update.tuple;
            cutoff = t.next_id;
          }
          :: t.tombstones;
      maybe_install t
    | R.Update.Insert ->
      (* A plain V⟨U⟩ — no compensation. Anomalies surface only as
         duplicate answer tuples (dropped on receipt), tuples covered by a
         tombstone, or missing tuples a concurrent delete would have
         removed anyway. *)
      let q = R.Query.view_delta t.view u in
      let local, remote = R.Query.split_local q in
      if not (R.Query.is_empty local) then
        add_answer t (R.Eval.literal_query local);
      if R.Query.is_empty remote then maybe_install t
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        t.uqs <- R.Fqueue.push t.uqs id;
        Algorithm.send_one id remote
      end

(* The answer to query [id], filtered by every tombstone of a delete
   processed after that query was sent, in one pass. *)
let filter_answer t ~id answer =
  match List.filter (fun ts -> id < ts.cutoff) t.tombstones with
  | [] -> answer
  | live ->
    R.Bag.filter (fun vt -> not (List.exists (fun ts -> ts.matches vt) live)) answer

let on_answer t ~id answer =
  t.uqs <- R.Fqueue.filter (fun i -> i <> id) t.uqs;
  if not (R.Bag.is_empty answer) then add_answer t (filter_answer t ~id answer);
  (* Ids enter the UQS increasing, so every answer still to come has an
     id at least the oldest pending one: a tombstone whose cutoff is not
     above it can filter nothing more. *)
  (match R.Fqueue.peek t.uqs with
   | None -> t.tombstones <- []
   | Some oldest -> t.tombstones <- List.filter (fun ts -> oldest < ts.cutoff) t.tombstones);
  (* Even an unchanged working copy must be installable once the pending
     phase ends: a stale MV may still differ from COLLECT. *)
  if R.Fqueue.is_empty t.uqs && not (R.Bag.equal t.mv (Mview.Keyed.bag t.collect))
  then t.dirty <- true;
  maybe_install t

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "eca-key";
    (* on_update guards with [View.mentions]: foreign updates are a
       stateless no-op, so dispatch may skip the instance. *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }
