(* ECA-Key as it was first written, kept as a reference model for its
   key tombstones: a list of (matcher, cutoff) pairs, newest first,
   scanned in full for every answer and filtered after it. The rung in
   lib keeps a (relation, key) -> newest-cutoff table instead; the
   property in test_random_views.ml drives both with the same inputs and
   compares every outcome. *)

module R = Relational
module Algorithm = Core.Algorithm
module Mview = Core.Mview

type tombstone = {
  matches : R.Tuple.t -> bool;
  cutoff : int;
}

type t = {
  view : R.View.t;
  mutable mv : R.Bag.t;
  collect : Mview.Keyed.t;
  mutable uqs : int list;  (* oldest first *)
  mutable next_id : int;
  mutable dirty : bool;
  mutable tombstones : tombstone list;  (* newest first *)
  key_match : (string * (R.Tuple.t -> R.Tuple.t -> bool)) list;
}

(* Whether a view tuple carries base tuple [t]'s key of [rel]. *)
let key_match ~view ~rel =
  let key_positions, out_positions = Mview.key_layout ~view ~rel in
  fun t ->
    let key = List.map (R.Tuple.get t) key_positions in
    fun vt ->
      List.for_all2
        (fun pos kv -> R.Value.equal (R.Tuple.get vt pos) kv)
        out_positions key

let create (cfg : Algorithm.Config.t) =
  let view = Option.get (R.Viewdef.as_simple cfg.Algorithm.Config.view) in
  {
    view;
    mv = cfg.Algorithm.Config.init_mv;
    collect =
      Mview.Keyed.create ~view ~rels:(R.View.relation_names view)
        (R.Bag.dedup_to_set cfg.Algorithm.Config.init_mv);
    uqs = [];
    next_id = 0;
    dirty = false;
    tombstones = [];
    key_match =
      List.map (fun rel -> (rel, key_match ~view ~rel)) (R.View.relation_names view);
  }

let mv t = t.mv

let collect t = Mview.Keyed.bag t.collect

let maybe_install t =
  if t.uqs = [] && t.dirty then begin
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
      if Mview.Keyed.key_delete t.collect ~rel:u.R.Update.rel u.R.Update.tuple then
        t.dirty <- true;
      if t.uqs <> [] then
        t.tombstones <-
          {
            matches = List.assoc u.R.Update.rel t.key_match u.R.Update.tuple;
            cutoff = t.next_id;
          }
          :: t.tombstones;
      maybe_install t
    | R.Update.Insert ->
      let local, remote = R.Query.split_local (R.Query.view_delta t.view u) in
      if not (R.Query.is_empty local) then add_answer t (R.Eval.literal_query local);
      if R.Query.is_empty remote then maybe_install t
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        t.uqs <- t.uqs @ [ id ];
        Algorithm.send_one id remote
      end

let filter_answer t ~id answer =
  match List.filter (fun ts -> id < ts.cutoff) t.tombstones with
  | [] -> answer
  | live ->
    R.Bag.filter (fun vt -> not (List.exists (fun ts -> ts.matches vt) live)) answer

let on_answer t ~id answer =
  t.uqs <- List.filter (fun i -> i <> id) t.uqs;
  if not (R.Bag.is_empty answer) then add_answer t (filter_answer t ~id answer);
  (match t.uqs with
   | [] -> t.tombstones <- []
   | oldest :: _ ->
     t.tombstones <- List.filter (fun ts -> oldest < ts.cutoff) t.tombstones);
  if t.uqs = [] && not (R.Bag.equal t.mv (Mview.Keyed.bag t.collect)) then
    t.dirty <- true;
  maybe_install t
