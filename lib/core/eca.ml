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

(* The guard of every term with one skeleton and literal mask: with
   exactly one base slot, its relation and, per guarding conjunct, the
   base slot's column, the literal slot and that slot's column; [None]
   otherwise. A term's guard reads only the literal values. *)
type template = (string * (int * int * int) list) option

(* A template and the first term it was built for. *)
type prepared = {
  first : R.Term.t;
  template : template;
}

(* One term of a pending query, at position [pos] of query [qid]. *)
type entry = { qid : int; pos : int; term : R.Term.t; shape : shape }

type pending = {
  id : int;
  slot : int;  (* the update slot its answer feeds *)
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

(* ECA feeds every event into the one open slot, COLLECT, installed
   once no query is pending; LCA opens a slot per event. *)
type policy = At_quiescence | In_order

(* An update slot: the delta it gathers for the view, and how many of
   the queries feeding it are unanswered. *)
type slot = { mutable delta : R.Bag.t; mutable open_queries : int }

type t = {
  view : R.Viewdef.t;
  delta : R.Delta_program.terms Lazy.t;
      (* V⟨U⟩, staged per part and relation at the first update: ECA-SM's
         fallback instance may never see one *)
  templates : prepared R.Memo.t;
      (* the guard templates of the skeletons enqueued so far *)
  policy : policy;
  mv : Mview.Keyed.t;
  slots : (int, slot) Hashtbl.t;
      (* the slots not yet installed: consecutive from [apply_next] *)
  mutable apply_next : int;
  mutable uqs : pending R.Fqueue.t;  (* oldest first *)
  mutable next_id : int;
  local_literal_eval : bool;
  (* The pending terms an update can compensate, kept only by an indexed
     instance (see [indexed]): a guarded term under the first conjunct
     of its guard, by (relation, column, value); every other term — no
     guard, or unguarded — in [unindexed]. Both in (qid, pos) order. *)
  guards : (string, (int * entry R.Fqueue.t Vtbl.t) list) Hashtbl.t;
  mutable unindexed : entry R.Fqueue.t;
}

let make ?keyed policy (cfg : Algorithm.Config.t) =
  {
    view = cfg.view;
    delta = lazy (R.Delta_program.stage_terms cfg.view);
    templates = R.Memo.create ();
    policy;
    mv =
      (match keyed with
       | None -> Mview.Keyed.plain cfg.init_mv
       | Some (view, rels) -> Mview.Keyed.create ~view ~rels cfg.init_mv);
    slots = Hashtbl.create 8;
    apply_next = 1;
    uqs = R.Fqueue.empty;
    next_id = 0;
    local_literal_eval = cfg.Algorithm.Config.local_literal_eval;
    guards = Hashtbl.create 8;
    unindexed = R.Fqueue.empty;
  }

let create ?keyed cfg = make ?keyed At_quiescence cfg

(* The template of [term]'s skeleton and mask. A term with exactly one
   base slot is guarded by its equi-join conjuncts between a column of
   that slot and a literal slot, resolved through the plan layout as
   (column within the base slot, literal slot, column within it).
   Same-slot equalities, comparisons with constants and non-[Eq]
   comparisons never guard. *)
let template (term : R.Term.t) : template =
  let bases =
    List.concat
      (List.mapi
         (fun i -> function R.Term.Base s -> [ (i, s) ] | R.Term.Lit _ -> [])
         term.R.Term.slots)
  in
  match bases with
  | [ (base, s) ] ->
    let layout = R.Plan.layout_of_slots term.R.Term.slots in
    let side a =
      let pos = R.Plan.resolve layout a in
      let s = R.Plan.slot_of_position layout pos in
      (s, pos - layout.R.Plan.offsets.(s))
    in
    Some
      ( s.R.Schema.name,
        List.filter_map
          (function
            | R.Predicate.Cmp (R.Predicate.Eq, R.Predicate.Col a, R.Predicate.Col b) ->
              let (sa, ca), (sb, cb) = (side a, side b) in
              if sa = base && sb <> base then Some (ca, sb, cb)
              else if sb = base && sa <> base then Some (cb, sa, ca)
              else None
            | _ -> None)
          (R.Predicate.conjuncts term.R.Term.cond) )
  | _ -> None

(* [term]'s template, found by physical identity of its condition and
   slot schemas (its view part's own) and by its mask, or built and
   kept. *)
let prepared_template t (term : R.Term.t) =
  (R.Memo.find_or_add t.templates
     ~fits:(fun p -> R.Term.same_shape p.first term)
     (fun () -> { first = term; template = template term }))
    .template

let shape t (term : R.Term.t) =
  match prepared_template t term with
  | None -> Unguarded
  | Some (rel, links) ->
    let literal s =
      match List.nth term.R.Term.slots s with
      | R.Term.Lit (_, _, tup) -> tup
      | R.Term.Base _ -> assert false  (* the template's one base slot is not [s] *)
    in
    Guarded
      (rel, List.map (fun (col, s, lcol) -> (col, R.Tuple.get (literal s) lcol)) links)

let guard t term =
  match shape t term with Guarded (rel, g) -> Some (rel, g) | Unguarded -> None

let mv t = Mview.Keyed.bag t.mv

let uqs t =
  List.map (fun p -> (p.id, List.map (fun e -> e.term) p.terms)) (R.Fqueue.to_list t.uqs)

let quiescent t = R.Fqueue.is_empty t.uqs && Hashtbl.length t.slots = 0

(* Local changes (ECAL, ECA-SM) are only safe with no query pending. *)
let require_quiescent name t =
  if not (quiescent t) then
    invalid_arg ("Eca." ^ name ^ ": instance has pending work")

let key_delete t ~rel tuple =
  require_quiescent "key_delete" t;
  Mview.Keyed.key_delete t.mv ~rel tuple

let apply_local t delta =
  require_quiescent "apply_local" t;
  Mview.Keyed.plus t.mv delta

(* Slot [i], opened if new, after adding [delta] to it. *)
let add t i delta =
  let s =
    match Hashtbl.find_opt t.slots i with
    | Some s -> s
    | None ->
      let s = { delta = R.Bag.empty; open_queries = 0 } in
      Hashtbl.replace t.slots i s;
      s
  in
  s.delta <- R.Bag.plus s.delta delta;
  s

(* Install every closed slot that is next in update order, oldest first;
   each non-empty delta is a distinct view state. ECA's one slot closes
   when the UQS drains — installing earlier could expose an invalid
   intermediate state (convergent but not consistent; Section 5.2) —
   while LCA's per-event slots make every source state visible. *)
let drain t =
  let rec go installs =
    match Hashtbl.find_opt t.slots t.apply_next with
    | Some s when s.open_queries = 0 ->
      Hashtbl.remove t.slots t.apply_next;
      t.apply_next <- t.apply_next + 1;
      if R.Bag.is_empty s.delta then go installs
      else begin
        Mview.Keyed.plus t.mv s.delta;
        go (mv t :: installs)
      end
    | Some _ | None -> List.rev installs
  in
  { Algorithm.nothing with installs = go [] }

(* Policy decision 4: ECA with local evaluation on indexes its pending
   terms by guard; LCA walks the whole UQS, because which of its slots
   get a query this event depends on every term [U] touches. *)
let indexed t = t.local_literal_eval && t.policy = At_quiescence

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

(* The pending terms [U] may compensate, with the slot each group feeds:
   every pending query in turn, or for an indexed instance the guard
   hits on [U]'s relation — a superset of the terms whose guard [U]
   meets — and every unindexed term, merged in (qid, pos) order, all
   feeding ECA's one slot. *)
let pending t (u : R.Update.t) =
  if not (indexed t) then List.map (fun p -> (p.slot, p.terms)) (R.Fqueue.to_list t.uqs)
  else
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
    [ (t.apply_next, List.fold_left (List.merge by_position) (R.Fqueue.to_list t.unindexed) hits) ]

(* A query under construction during one event, bound for slot [into]:
   its terms for the source and its literal terms, both newest first,
   and whether any substitution landed in it at all. *)
type acc = {
  into : int;
  mutable remote : R.Term.t list;
  mutable local : R.Term.t list;
  mutable hit : bool;
}

let acc into = { into; remote = []; local = []; hit = false }

(* Terms whose slots are all substituted tuples need no base data: with
   local evaluation on they are evaluated here, into the slot, and never
   shipped (Appendix D's "no compensating query needs to be sent since
   all data needed is already at the warehouse"). With it off every term
   is shipped, as a literal reading of Algorithm 5.2 would. *)
let feed t a term =
  a.hit <- true;
  if t.local_literal_eval && R.Term.is_all_literals term then a.local <- term :: a.local
  else a.remote <- term :: a.remote

(* [U]'s compensation of one term, negated, into [a]. A guarded term
   whose guard [U] fails is provably empty and skipped — it still counts
   as hit, as its substitution would — and the rest of the guarded ones
   turn all-literal. *)
let compensate t (u : R.Update.t) a term shape =
  let meets (col, v) =
    R.Value.compare_for_predicate (R.Tuple.get u.R.Update.tuple col) v = 0
  in
  match shape with
  | Guarded (base, guard) when t.local_literal_eval ->
    if String.equal base u.R.Update.rel then begin
      a.hit <- true;
      if List.for_all meets guard then
        Option.iter (fun s -> feed t a (R.Term.negate s)) (R.Term.subst term u)
    end
  | Guarded _ | Unguarded ->
    Option.iter (fun s -> feed t a (R.Term.negate s)) (R.Term.subst term u)

(* Policy decision 1: the accumulator a compensation feeds. ECA folds
   everything into the update's own; LCA sends −Q_j⟨U⟩ to a new one
   bound for Q_j's slot, and −extra⟨U⟩ back into the accumulator that
   holds extra. *)
let target t ~own other = match t.policy with At_quiescence -> own | In_order -> other ()

(* One update's fold into the event's accumulators [accs], oldest
   first: Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩ − extra⟨U_i⟩, extra being
   the event's earlier terms (the source evaluates them after the whole
   batch too). V⟨U⟩ comes first: it checks U's tuple against the schema
   before any guard reads it. Extra is compensated without the guard
   test, which only ever skips an empty literal term. A literal term
   never equals a remote one, so simplifying the remote terms alone
   ships [split_local (simplify q)]'s remote half. New accumulators join
   the event after [accs], in creation order, if hit. *)
let fold t ~slot accs (u : R.Update.t) =
  let own = acc slot in
  List.iter (feed t own) (R.Delta_program.delta_query (Lazy.force t.delta) u);
  let extra = List.map (fun a -> (a, List.rev a.remote)) accs in
  let fresh =
    List.filter_map
      (fun (into, entries) ->
        let a = target t ~own (fun () -> acc into) in
        List.iter (fun e -> compensate t u a e.term e.shape) entries;
        if a != own && a.hit then Some a else None)
      (pending t u)
  in
  List.iter
    (fun (a, terms) ->
      let a = target t ~own (fun () -> a) in
      List.iter (fun term -> compensate t u a term Unguarded) terms)
    extra;
  (* Policy decision 2, first half: ECA simplifies each update's query
     as it closes; its terms are the next update's extra. *)
  if t.policy = At_quiescence then
    own.remote <- List.rev (R.Query.simplify (List.rev own.remote));
  accs @ fresh @ if own.hit then [ own ] else []

(* The event's queries, one per slot in the order the slots first got
   an accumulator, each the concatenation of its accumulators. *)
let rec by_slot = function
  | [] -> []
  | a :: _ as accs ->
    let mine, rest = List.partition (fun b -> b.into = a.into) accs in
    (a.into, List.concat_map (fun b -> List.rev b.remote) mine) :: by_slot rest

let enqueue t into q =
  let id = t.next_id in
  t.next_id <- id + 1;
  let terms =
    List.mapi (fun pos term -> { qid = id; pos; term; shape = shape t term }) q
  in
  if indexed t then List.iter (index t) terms;
  t.uqs <- R.Fqueue.push t.uqs { id; slot = into; terms };
  let s = add t into R.Bag.empty in
  s.open_queries <- s.open_queries + 1;
  (id, q)

(* One warehouse event covering [us], executed atomically at the source
   (a single update is the batch of one; Section 7's batched updates).
   Policy decision 3: ECA's event feeds COLLECT, its only slot; LCA's
   opens the next slot — its event clock. Decision 2's second half: LCA
   ships one query per slot it touched, each simplified once here. *)
let on_event t us =
  let into = t.apply_next + if t.policy = In_order then Hashtbl.length t.slots else 0 in
  ignore (add t into R.Bag.empty);
  let accs = List.fold_left (fold t ~slot:into) [] us in
  List.iter
    (fun a ->
      if a.local <> [] then
        ignore (add t a.into (R.Eval.literal_query (List.rev a.local))))
    accs;
  let send =
    List.filter_map
      (fun (into, q) ->
        let q = if t.policy = In_order then R.Query.simplify q else q in
        if R.Query.is_empty q then None else Some (enqueue t into q))
      (by_slot accs)
  in
  { (drain t) with Algorithm.send }

let on_update t u = on_event t [ u ]
let on_batch t us = if us = [] then Algorithm.nothing else on_event t us

let on_answer t ~id answer =
  match R.Fqueue.remove_first (fun p -> p.id = id) t.uqs with
  | None, _ -> Algorithm.nothing
  | Some p, uqs ->
    t.uqs <- uqs;
    if indexed t then List.iter (unindex t) p.terms;
    let s = add t p.slot answer in
    s.open_queries <- s.open_queries - 1;
    drain t

let of_state t =
  let eca = t.policy = At_quiescence in
  {
    Algorithm.name = (if eca then "eca" else "lca");
    (* Viewdef.delta and Query.subst are both empty for a foreign base
       relation, so an ECA update outside the view's relations provably
       yields [nothing] and touches no state: safe to skip at dispatch.
       LCA's event clock ticks on every update (a foreign one opens an
       empty slot), so its interest is everything. *)
    interest = (if eca then Some (R.Viewdef.relation_names t.view) else None);
    on_update = on_update t;
    on_batch = on_batch t;
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }

let instance cfg = of_state (create cfg)
let lca cfg = of_state (make In_order cfg)

(* Online (re)initialization: the full view query V' pending from an
   empty materialization, as if the view's birth were the maintenance of
   one big insertion (Section 5.2). Updates arriving while it is in
   flight are compensated by the ordinary algebra — V'⟨U⟩ − Q0⟨U⟩ — so
   the state installed when the UQS drains reflects every update the
   source executed, on whichever side of the query it landed. *)
let refresh cfg =
  let t = create { cfg with Algorithm.Config.init_mv = R.Bag.empty } in
  let q = R.Query.simplify (R.Viewdef.full_query t.view) in
  if R.Query.is_empty q then (of_state t, Algorithm.install (mv t))
  else
    let id, q = enqueue t t.apply_next q in
    (of_state t, Algorithm.send_one id q)
