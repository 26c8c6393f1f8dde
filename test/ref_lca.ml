(* LCA as it was first written, kept as a reference model for the
   in-order install policy of Core.Eca: query by query, [Query.subst]
   over a snapshot of the pending pieces rebuilt on every event, and
   one delta slot per update installed in update order. The property in
   test_random_views.ml runs both on the same inputs and compares the
   exported runs. *)

module R = Relational
module Algorithm = Core.Algorithm
module Mview = Core.Mview

type delta = {
  mutable acc : R.Bag.t;  (* accumulated change for one update (or batch) *)
  mutable open_pieces : int;  (* unanswered queries contributing to it *)
}

type piece = {
  target : int;  (* which delta this query belongs to *)
  query : R.Query.t;  (* as pending at the source, for substitution *)
}

type t = {
  view : R.Viewdef.t;
  mutable mv : R.Bag.t;
  deltas : (int, delta) Hashtbl.t;
  pending : (int, piece) Hashtbl.t;  (* by query id *)
  mutable pending_order : int R.Fqueue.t;
      (* query ids, oldest first — a functional queue: the order grows by
         one per shipped piece and list appends made it quadratic over a
         long run *)
  mutable next_qid : int;
  mutable updates_seen : int;
  mutable apply_next : int;  (* next delta index to install (1-based) *)
}

let create (cfg : Algorithm.Config.t) =
  {
    view = cfg.view;
    mv = cfg.init_mv;
    deltas = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    pending_order = R.Fqueue.empty;
    next_qid = 0;
    updates_seen = 0;
    apply_next = 1;
  }

let mv t = t.mv

let quiescent t =
  Hashtbl.length t.pending = 0 && t.apply_next > t.updates_seen

let delta_of t idx =
  match Hashtbl.find_opt t.deltas idx with
  | Some d -> d
  | None ->
    let d = { acc = R.Bag.empty; open_pieces = 0 } in
    Hashtbl.replace t.deltas idx d;
    d

(* Install every closed delta that is next in update order; each
   application is a distinct view state — this in-order, per-update
   installation is what upgrades strong consistency to completeness. *)
let drain_installs t =
  let rec go acc =
    match Hashtbl.find_opt t.deltas t.apply_next with
    | Some d when d.open_pieces = 0 ->
      Hashtbl.remove t.deltas t.apply_next;
      t.apply_next <- t.apply_next + 1;
      if R.Bag.is_empty d.acc then go acc
      else begin
        t.mv <- Mview.apply_delta t.mv d.acc;
        go (t.mv :: acc)
      end
    | Some _ | None -> List.rev acc
  in
  go []

let register_piece t ~target query =
  let qid = t.next_qid in
  t.next_qid <- qid + 1;
  Hashtbl.replace t.pending qid { target; query };
  t.pending_order <- R.Fqueue.push t.pending_order qid;
  let d = delta_of t target in
  d.open_pieces <- d.open_pieces + 1;
  (qid, query)

(* One warehouse event covering [updates] executed atomically at the
   source (a single update is the batch of one). The whole batch feeds a
   single delta slot, so completeness is with respect to the observable
   batch-boundary source states.

   Per-target queries accumulate as the batch is replayed:
   - every already-accumulated query will be evaluated after the entire
     batch, so each update folds a compensation into it
     ([q := q − q⟨u⟩], which also compensates earlier compensations);
   - every piece already pending at the source gets a fresh compensation
     [−p⟨u⟩] targeting {e that piece's} delta, itself subject to folding
     by the rest of the batch;
   - the update's own base query [V⟨u⟩] joins the batch's accumulator.

   At the end, literal-only terms are evaluated locally into their target
   deltas and one query per target ships to the source. *)
let on_event t updates =
  t.updates_seen <- t.updates_seen + 1;
  let idx = t.updates_seen in
  ignore (delta_of t idx);
  let uqs_snapshot =
    List.rev
      (R.Fqueue.fold
         (fun snap qid ->
           match Hashtbl.find_opt t.pending qid with
           | Some p -> (qid, p) :: snap
           | None -> snap)
         [] t.pending_order)
  in
  (* (target, query) accumulators created during this event, newest
     first; reversed into creation order at the merge below. *)
  let acc : (int * R.Query.t ref) list ref = ref [] in
  let add_piece target q =
    if not (R.Query.is_empty q) then acc := (target, ref q) :: !acc
  in
  List.iter
    (fun u ->
      List.iter (fun (_, qr) -> qr := Helpers.query_minus !qr (R.Query.subst !qr u)) !acc;
      List.iter
        (fun (_, p) -> add_piece p.target (R.Query.negate (R.Query.subst p.query u)))
        uqs_snapshot;
      add_piece idx (R.Viewdef.delta t.view u))
    updates;
  (* Merge the accumulators by target, one shipped query per target. *)
  let by_target = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (target, qr) ->
      match Hashtbl.find_opt by_target target with
      | Some r -> r := R.Query.plus !r !qr
      | None ->
        Hashtbl.replace by_target target (ref !qr);
        order := target :: !order)
    (List.rev !acc);
  let sends =
    List.filter_map
      (fun target ->
        let q = R.Query.simplify !(Hashtbl.find by_target target) in
        let local, remote = R.Query.split_local q in
        let d = delta_of t target in
        d.acc <- R.Bag.plus d.acc (R.Eval.literal_query local);
        if R.Query.is_empty remote then None
        else Some (register_piece t ~target remote))
      (List.rev !order)
  in
  { Algorithm.send = sends; installs = drain_installs t }

let on_update t u = on_event t [ u ]

let on_batch t us = if us = [] then Algorithm.nothing else on_event t us

let on_answer t ~id answer =
  match Hashtbl.find_opt t.pending id with
  | None -> Algorithm.nothing
  | Some p ->
    Hashtbl.remove t.pending id;
    t.pending_order <- snd (R.Fqueue.remove_first (Int.equal id) t.pending_order);
    let d = delta_of t p.target in
    d.acc <- R.Bag.plus d.acc answer;
    d.open_pieces <- d.open_pieces - 1;
    { Algorithm.send = []; installs = drain_installs t }

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "lca";
    (* LCA's event clock ticks on *every* update (foreign ones advance
       [updates_seen] and open an empty delta slot), so no update may be
       skipped: interest is everything. *)
    interest = None;
    on_update = on_update t;
    on_batch = on_batch t;
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }
