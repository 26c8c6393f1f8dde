module R = Relational

type t = {
  view : R.Viewdef.t;
  mutable mv : Mview.Keyed.t;
  mutable collect : R.Bag.t;
  mutable uqs : (int * R.Query.t) R.Fqueue.t;  (* oldest first *)
  mutable next_id : int;
  local_literal_eval : bool;
}

(* ECA is the universal rung: any SPJ viewdef, simple or compound, keyed
   or not — the catalog's ladder falls back to it when no cheaper rung
   applies. *)
let applicable (_ : R.Viewdef.t) = true

let create ?keyed (cfg : Algorithm.Config.t) =
  {
    view = cfg.view;
    mv =
      (match keyed with
       | None -> Mview.Keyed.plain cfg.init_mv
       | Some (view, rels) -> Mview.Keyed.create ~view ~rels cfg.init_mv);
    collect = R.Bag.empty;
    uqs = R.Fqueue.empty;
    next_id = 0;
    local_literal_eval = cfg.Algorithm.Config.local_literal_eval;
  }

(* Split off the literal-only terms when local evaluation is enabled;
   otherwise ship the whole query, as a literal reading of Algorithm 5.2
   would. *)
let split t q =
  if t.local_literal_eval then R.Query.split_local (R.Query.simplify q)
  else (R.Query.empty, R.Query.simplify q)

let mv t = Mview.Keyed.bag t.mv

let uqs t = R.Fqueue.to_list t.uqs

let quiescent t = R.Fqueue.is_empty t.uqs && R.Bag.is_empty t.collect

(* Local changes (ECAL, ECA-SM) are only safe with no query pending. *)
let require_quiescent name t =
  if not (quiescent t) then
    invalid_arg ("Eca." ^ name ^ ": instance has pending work")

let key_delete t ~rel tuple =
  require_quiescent "key_delete" t;
  let mv, changed = Mview.Keyed.key_delete t.mv ~rel tuple in
  t.mv <- mv;
  changed

let apply_local t delta =
  require_quiescent "apply_local" t;
  t.mv <- Mview.Keyed.plus t.mv delta

(* Install COLLECT into the view once no query is pending — installing
   earlier could expose an invalid intermediate state (the algorithm would
   still converge, but stop being consistent; see Section 5.2). *)
let maybe_install t =
  if R.Fqueue.is_empty t.uqs && not (R.Bag.is_empty t.collect) then begin
    t.mv <- Mview.Keyed.plus t.mv t.collect;
    t.collect <- R.Bag.empty;
    Algorithm.install (mv t)
  end
  else Algorithm.nothing

let on_update t (u : R.Update.t) =
  (* Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩ *)
  let q =
    R.Fqueue.fold
      (fun acc (_, qj) -> R.Query.minus acc (R.Query.subst qj u))
      (R.Viewdef.delta t.view u)
      t.uqs
  in
  (* Terms whose slots are all substituted tuples need no base data: they
     are evaluated here and never shipped (Appendix D's "no compensating
     query needs to be sent since all data needed is already at the
     warehouse"); exact T/-T pairs cancel outright. *)
  let local, remote = split t q in
  t.collect <- R.Bag.plus t.collect (R.Eval.literal_query local);
  if R.Query.is_empty remote then maybe_install t
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.uqs <- R.Fqueue.push t.uqs (id, remote);
    Algorithm.send_one id remote
  end

let on_answer t ~id answer =
  t.uqs <- R.Fqueue.filter (fun (i, _) -> i <> id) t.uqs;
  t.collect <- R.Bag.plus t.collect answer;
  maybe_install t

(* Batched updates (Section 7): the whole batch becomes one query under
   one id. Each update's delta compensates both the pending queries and
   the remote terms already accumulated for this batch — all of which the
   source will evaluate after the entire batch has been applied. *)
let on_batch t us =
  let batch_remote = ref R.Query.empty in
  List.iter
    (fun u ->
      let q =
        R.Fqueue.fold
          (fun acc (_, qj) -> R.Query.minus acc (R.Query.subst qj u))
          (R.Viewdef.delta t.view u)
          t.uqs
      in
      let q = R.Query.minus q (R.Query.subst !batch_remote u) in
      let local, remote = split t q in
      t.collect <- R.Bag.plus t.collect (R.Eval.literal_query local);
      batch_remote := R.Query.plus !batch_remote remote)
    us;
  if R.Query.is_empty !batch_remote then maybe_install t
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.uqs <- R.Fqueue.push t.uqs (id, !batch_remote);
    Algorithm.send_one id !batch_remote
  end

let of_state t =
  {
    Algorithm.name = "eca";
    (* Viewdef.delta and Query.subst are both empty for a foreign base
       relation, so an update outside the view's relations provably
       yields [nothing] and touches no state: safe to skip at dispatch. *)
    interest = Some (R.Viewdef.relation_names t.view);
    on_update = on_update t;
    on_batch = on_batch t;
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> []);
  }

let instance cfg = of_state (create cfg)

(* Online (re)initialization: start from an empty materialization with the
   full view query V' already pending in the UQS, as if the view's birth
   were the maintenance of one big insertion (Section 5.2's observation
   that initialization is just maintenance of the full query). Updates
   arriving while the query is in flight are compensated by the ordinary
   ECA algebra — V'⟨U⟩ − Q0⟨U⟩ — so the state installed when the UQS
   drains reflects every update the source executed, on whichever side of
   the query it landed. This is what the warehouse swaps in when a schema
   change invalidates a hosted view. *)
let refresh cfg =
  let t = create { cfg with Algorithm.Config.init_mv = R.Bag.empty } in
  let q = R.Query.simplify (R.Viewdef.full_query t.view) in
  if R.Query.is_empty q then (of_state t, Algorithm.install (mv t))
  else begin
    t.uqs <- R.Fqueue.push t.uqs (0, q);
    t.next_id <- 1;
    (of_state t, Algorithm.send_one 0 q)
  end
