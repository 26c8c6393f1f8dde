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

   A view tuple is hit when, for some base relation, its projected key
   carries a tombstone whose cutoff is above the answer's id. Only the
   newest cutoff per (relation, key) matters, so the tombstones are a
   table from (relation, key) to that cutoff, with a FIFO of every
   cutoff set (nondecreasing) to prune by. *)
module Ktbl = Hashtbl.Make (struct
  type t = string * R.Value.t list

  let equal (r, k) (r', k') = String.equal r r' && List.equal R.Value.equal k k'
  let hash (r, k) = List.fold_left (fun h v -> (h * 31) + R.Value.hash v) (Hashtbl.hash r) k
end)

type t = {
  view : R.View.t;
  delta : R.Delta_program.terms;  (* V⟨U⟩, staged per relation *)
  mutable mv : R.Bag.t;
  collect : Mview.Keyed.t;  (* working copy of MV, a set *)
  mutable uqs : int R.Fqueue.t;
  mutable next_id : int;
  mutable dirty : bool;  (* collect differs from mv *)
  tombstones : int Ktbl.t;  (* (relation, deleted key) -> newest cutoff *)
  cutoffs : (int * (string * R.Value.t list)) Queue.t;  (* oldest first *)
  keys : (string * int list * int list) list;
      (* per base relation, its key's positions in its own tuples and in
         the view's, resolved once *)
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
    delta = R.Delta_program.stage_terms cfg.view;
    mv = cfg.init_mv;
    collect =
      Mview.Keyed.create ~view ~rels:(R.View.relation_names view)
        (R.Bag.dedup_to_set cfg.init_mv);
    uqs = R.Fqueue.empty;
    next_id = 0;
    dirty = false;
    tombstones = Ktbl.create 16;
    cutoffs = Queue.create ();
    keys =
      List.map
        (fun rel ->
          let base, out = Mview.key_layout ~view ~rel in
          (rel, base, out))
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

let add_answer t answer = if Mview.Keyed.add_dedup t.collect answer then t.dirty <- true

let on_update t (u : R.Update.t) =
  if not (R.View.mentions t.view u.R.Update.rel) then Algorithm.nothing
  else
    match u.R.Update.kind with
    | R.Update.Delete ->
      (* Handled locally: the projected key identifies exactly the view
         tuples derived from the deleted base tuple. *)
      if Mview.Keyed.key_delete t.collect ~rel:u.R.Update.rel u.R.Update.tuple then
        t.dirty <- true;
      if not (R.Fqueue.is_empty t.uqs) then begin
        let rel = u.R.Update.rel in
        let _, base, _ = List.find (fun (r, _, _) -> String.equal r rel) t.keys in
        let key = (rel, List.map (R.Tuple.get u.R.Update.tuple) base) in
        Ktbl.replace t.tombstones key t.next_id;
        Queue.push (t.next_id, key) t.cutoffs
      end;
      maybe_install t
    | R.Update.Insert ->
      (* A plain V⟨U⟩ — no compensation. Anomalies surface only as
         duplicate answer tuples (dropped on receipt), tuples covered by a
         tombstone, or missing tuples a concurrent delete would have
         removed anyway. *)
      let q = R.Delta_program.delta_query t.delta u in
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

(* The answer to query [id] without the view tuples a tombstone of a
   delete processed after that query was sent hits; the answer itself
   when none is hit. *)
let filter_answer t ~id answer =
  if Ktbl.length t.tombstones = 0 then answer
  else
    let hit vt =
      List.exists
        (fun (rel, _, out) ->
          match Ktbl.find_opt t.tombstones (rel, List.map (R.Tuple.get vt) out) with
          | Some cutoff -> id < cutoff
          | None -> false)
        t.keys
    in
    if R.Bag.fold (fun vt _ any -> any || hit vt) answer false then
      R.Bag.filter (fun vt -> not (hit vt)) answer
    else answer

(* Ids enter the UQS increasing, so every answer still to come has an id
   at least the oldest pending one: a tombstone whose cutoff is not above
   it can filter nothing more. A table entry goes with its cutoff unless
   a newer delete of the same key has replaced it. *)
let prune t =
  match R.Fqueue.peek t.uqs with
  | None ->
    if Ktbl.length t.tombstones > 0 then Ktbl.reset t.tombstones;
    Queue.clear t.cutoffs
  | Some oldest ->
    while (not (Queue.is_empty t.cutoffs)) && fst (Queue.peek t.cutoffs) <= oldest do
      let cutoff, key = Queue.pop t.cutoffs in
      if Ktbl.find_opt t.tombstones key = Some cutoff then Ktbl.remove t.tombstones key
    done

let on_answer t ~id answer =
  t.uqs <- snd (R.Fqueue.remove_first (Int.equal id) t.uqs);
  if not (R.Bag.is_empty answer) then add_answer t (filter_answer t ~id answer);
  prune t;
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
