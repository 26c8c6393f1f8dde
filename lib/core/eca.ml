module R = Relational

(* How a pending term compensates a later update U, fixed when its query
   enters the UQS. *)
type shape =
  | Guarded of string * (int * R.Value.t) list
      (* exactly one base slot, on the named relation, so U's substitution
         leaves the term all-literal. Each (column, value) is an
         equi-join conjunct linking that slot's column to a literal
         slot's value: a U tuple failing one makes the substituted term
         provably empty. *)
  | Unguarded  (* no base slot, or two or more *)

(* One term of a pending query, at position [pos] of query [qid]. *)
type entry = {
  qid : int;
  pos : int;
  term : R.Term.t;
  shape : shape;
}

type pending = {
  id : int;
  terms : entry list;  (* the shipped query, term by term *)
}

(* Guard values keyed as [Value.compare_for_predicate] compares them:
   an [Int] is stored as the [Float] it equals, so [Int 1] and
   [Float 1.0] share a bucket. Ints beyond 2^53 may collide; the index
   then over-approximates, which the full guard test filters. *)
module Vtbl = Hashtbl.Make (struct
  type t = R.Value.t

  let equal a b = R.Value.compare_for_predicate a b = 0
  let hash = R.Value.hash
end)

let guard_key = function
  | R.Value.Int n -> R.Value.Float (float_of_int n)
  | v -> v

type t = {
  view : R.Viewdef.t;
  mutable mv : Mview.Keyed.t;
  mutable collect : R.Bag.t;
  mutable uqs : pending R.Fqueue.t;  (* oldest first *)
  mutable next_id : int;
  local_literal_eval : bool;
  (* The pending terms an update can compensate, kept only with
     [local_literal_eval] on: a guarded term under the first conjunct of
     its guard, by (relation, column, value); every other term — no
     guard, or unguarded — in [unindexed]. Both in (qid, pos) order. *)
  guards : (string, (int * entry R.Fqueue.t Vtbl.t) list) Hashtbl.t;
  mutable unindexed : entry R.Fqueue.t;
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
    guards = Hashtbl.create 8;
    unindexed = R.Fqueue.empty;
  }

(* The guard of a term with exactly one base slot [base]: its equi-join
   conjuncts between a column of that slot and a literal slot, resolved
   through the plan layout as (column within the base slot, the literal's
   value). Same-slot equalities, comparisons with constants and non-[Eq]
   comparisons never guard. *)
let guard (term : R.Term.t) base =
  let layout = R.Plan.layout_of_slots term.R.Term.slots in
  let slots = Array.of_list term.R.Term.slots in
  let side a =
    let pos = R.Plan.resolve layout a in
    let s = R.Plan.slot_of_position layout pos in
    (s, pos - layout.R.Plan.offsets.(s))
  in
  let literal s col =
    match slots.(s) with
    | R.Term.Lit (_, _, tup) -> Some (R.Tuple.get tup col)
    | R.Term.Base _ -> None
  in
  List.filter_map
    (function
      | R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.Col a, R.Predicate.Col b) ->
        let (sa, ca), (sb, cb) = (side a, side b) in
        if sa = base && sb <> base then Option.map (fun v -> (ca, v)) (literal sb cb)
        else if sb = base && sa <> base then Option.map (fun v -> (cb, v)) (literal sa ca)
        else None
      | _ -> None)
    (R.Predicate.conjuncts term.R.Term.cond)

let shape (term : R.Term.t) =
  let bases =
    List.concat
      (List.mapi
         (fun i -> function R.Term.Base s -> [ (i, s) ] | R.Term.Lit _ -> [])
         term.R.Term.slots)
  in
  match bases with
  | [ (i, s) ] -> Guarded (s.R.Schema.name, guard term i)
  | _ -> Unguarded

let shaped q = List.map (fun term -> (term, shape term)) q

let mv t = Mview.Keyed.bag t.mv

let uqs t =
  List.map
    (fun p -> (p.id, List.map (fun e -> e.term) p.terms))
    (R.Fqueue.to_list t.uqs)

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

(* Where [e] sits in the guard index: its relation, column and bucket
   key, or [None] for [unindexed]. *)
let index_slot e =
  match e.shape with
  | Guarded (rel, (col, v) :: _) -> Some (rel, col, guard_key v)
  | Guarded (_, []) | Unguarded -> None

let index t e =
  match index_slot e with
  | None -> t.unindexed <- R.Fqueue.push t.unindexed e
  | Some (rel, col, key) ->
    let cols = Option.value ~default:[] (Hashtbl.find_opt t.guards rel) in
    let tbl =
      match List.assoc_opt col cols with
      | Some tbl -> tbl
      | None ->
        let tbl = Vtbl.create 16 in
        Hashtbl.replace t.guards rel ((col, tbl) :: cols);
        tbl
    in
    let bucket = Option.value ~default:R.Fqueue.empty (Vtbl.find_opt tbl key) in
    Vtbl.replace tbl key (R.Fqueue.push bucket e)

let unindex t e =
  let without q = snd (R.Fqueue.remove_first (fun e' -> e' == e) q) in
  match index_slot e with
  | None -> t.unindexed <- without t.unindexed
  | Some (rel, col, key) -> (
    let tbl = List.assoc col (Hashtbl.find t.guards rel) in
    match without (Vtbl.find tbl key) with
    | b when R.Fqueue.is_empty b -> Vtbl.remove tbl key
    | b -> Vtbl.replace tbl key b)

let by_position a b = if a.qid <> b.qid then Int.compare a.qid b.qid else Int.compare a.pos b.pos

(* The pending terms [U] may compensate, in (qid, pos) order: the guard
   hits on [U]'s relation — a superset of the terms whose guard [U]
   meets — and every unindexed term. *)
let candidates t (u : R.Update.t) =
  let hits =
    match Hashtbl.find_opt t.guards u.R.Update.rel with
    | None -> []
    | Some cols ->
      List.filter_map
        (fun (col, tbl) ->
          Option.map R.Fqueue.to_list
            (Vtbl.find_opt tbl (guard_key (R.Tuple.get u.R.Update.tuple col))))
        cols
  in
  List.fold_left (List.merge by_position) (R.Fqueue.to_list t.unindexed) hits

(* [U]'s compensation of one pending term, negated, onto [local] or
   [remote] (reversed accumulators): a guarded term whose guard [U]
   fails is provably empty and skipped, the rest of the guarded ones
   turn all-literal and go to [local], and the others stay for the
   source in [remote]. With local evaluation off every substituted term
   is shipped, as a literal reading of Algorithm 5.2 would. *)
let compensate t (u : R.Update.t) ~local ~remote term shape =
  let meets (col, v) =
    R.Value.compare_for_predicate (R.Tuple.get u.R.Update.tuple col) v = 0
  in
  match shape with
  | Guarded (base, guard) when t.local_literal_eval ->
    if String.equal base u.R.Update.rel && List.for_all meets guard then
      Option.iter
        (fun s -> local := R.Term.negate s :: !local)
        (R.Term.subst term u)
  | Guarded _ | Unguarded ->
    Option.iter
      (fun s -> remote := R.Term.negate s :: !remote)
      (R.Term.subst term u)

(* Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩ − extra⟨U_i⟩. Terms whose slots
   are all substituted tuples need no base data: they are evaluated here
   into COLLECT and never shipped (Appendix D's "no compensating query
   needs to be sent since all data needed is already at the warehouse").
   The remote terms keep their fold order and exact T/-T pairs cancel,
   so the shipped query is [split_local (simplify q)]'s remote half: a
   literal term never equals a remote one, so no cancelled pair crosses
   the split, and a skipped or cancelled literal term adds ∅ to
   COLLECT. With local evaluation on, the UQS is visited through the
   guard index: a term it leaves out is guarded on another relation or
   fails its first guard conjunct, so it would have been skipped. *)
let maintenance_query t (u : R.Update.t) ~extra =
  let local = ref [] and remote = ref [] in
  (* V⟨U⟩ first: its substitution checks U's tuple against the schema
     before any guard reads it. *)
  List.iter
    (fun term ->
      if t.local_literal_eval && R.Term.is_all_literals term then local := term :: !local
      else remote := term :: !remote)
    (R.Viewdef.delta t.view u);
  let visit e = compensate t u ~local ~remote e.term e.shape in
  if t.local_literal_eval then List.iter visit (candidates t u)
  else R.Fqueue.iter (fun p -> List.iter visit p.terms) t.uqs;
  List.iter (fun (term, shape) -> compensate t u ~local ~remote term shape) extra;
  if !local <> [] then
    t.collect <- R.Bag.plus t.collect (R.Eval.literal_query (List.rev !local));
  R.Query.simplify (List.rev !remote)

let enqueue t id terms =
  let terms = List.mapi (fun pos (term, shape) -> { qid = id; pos; term; shape }) terms in
  if t.local_literal_eval then List.iter (index t) terms;
  t.uqs <- R.Fqueue.push t.uqs { id; terms };
  Algorithm.send_one id (List.map (fun e -> e.term) terms)

let send t = function
  | [] -> maybe_install t
  | terms ->
    let id = t.next_id in
    t.next_id <- id + 1;
    enqueue t id terms

let on_update t u = send t (shaped (maintenance_query t u ~extra:[]))

let on_answer t ~id answer =
  let answered, uqs = R.Fqueue.remove_first (fun p -> p.id = id) t.uqs in
  t.uqs <- uqs;
  if t.local_literal_eval then
    Option.iter (fun p -> List.iter (unindex t) p.terms) answered;
  t.collect <- R.Bag.plus t.collect answer;
  maybe_install t

(* Batched updates (Section 7): the whole batch becomes one query under
   one id. Each update's delta compensates both the pending queries and
   the remote terms already accumulated for this batch — all of which the
   source will evaluate after the entire batch has been applied. *)
let on_batch t us =
  send t
    (List.fold_left
       (fun batch u -> batch @ shaped (maintenance_query t u ~extra:batch))
       [] us)

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
    counters = (fun () -> None);
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
    t.next_id <- 1;
    (of_state t, enqueue t 0 (shaped q))
  end
