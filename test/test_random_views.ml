(* Property tests over randomly generated VIEW DEFINITIONS — random
   subsets of base relations, random projections and random conditions —
   not just the fixed chain view. This is the strongest executable form of
   Theorem B.1: for arbitrary SPJ views, arbitrary applicable update
   streams and arbitrary interleavings, ECA is strongly consistent and
   ends at the true view. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Random view generator                                               *)
(* ------------------------------------------------------------------ *)

let schemas = [| r1; r2; r3 |]

let qualified_cols (s : R.Schema.t) =
  List.map (fun c -> R.Attr.qualified s.R.Schema.name c) (R.Schema.attr_names s)

(* 0-2 conjuncts of comparisons between random columns / small
   constants *)
let cond_gen cols =
  QCheck.Gen.(
    let operand =
      let* use_col = bool in
      if use_col then
        let* i = int_bound (List.length cols - 1) in
        return (R.Predicate.Col (List.nth cols i))
      else
        let* n = int_bound 4 in
        return (R.Predicate.Const (R.Value.Int n))
    in
    let conjunct =
      let* cmp =
        oneofl
          R.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ]
      in
      let* a = operand in
      let* b = operand in
      return (R.Predicate.Cmp (cmp, a, b))
    in
    let* n_conj = int_bound 2 in
    map R.Predicate.conj (list_size (return n_conj) conjunct))

let view_gen_over schemas =
  QCheck.Gen.(
    (* pick a non-empty subset of the three relations, in order *)
    let* mask = int_range 1 7 in
    let sources =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
        (Array.to_list schemas)
    in
    let cols = List.concat_map qualified_cols sources in
    (* random non-empty projection *)
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj =
      List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols
    in
    let* extra_cond = cond_gen cols in
    (* join same-named columns across the chosen relations, plus extras *)
    return (R.View.natural_join ~name:"RV" ~extra_cond ~proj sources))

let view_gen = view_gen_over schemas

let setup_gen =
  QCheck.Gen.(
    let tuple_gen = map R.Tuple.ints (list_size (return 2) (int_bound 4)) in
    let* view = view_gen in
    let* rows1 = list_size (int_bound 4) tuple_gen in
    let* rows2 = list_size (int_bound 4) tuple_gen in
    let* rows3 = list_size (int_bound 4) tuple_gen in
    let db =
      R.Db.of_list
        [
          (r1, R.Bag.of_list rows1);
          (r2, R.Bag.of_list rows2);
          (r3, R.Bag.of_list rows3);
        ]
    in
    let* n = int_range 1 5 in
    let* raw =
      list_size (return n)
        (pair (oneofl [ "r1"; "r2"; "r3" ]) (pair tuple_gen bool))
    in
    let _, updates =
      List.fold_left
        (fun (db, acc) (rel, (tup, want_insert)) ->
          let u =
            if want_insert || R.Bag.count (R.Db.contents db rel) tup <= 0 then
              R.Update.insert rel tup
            else R.Update.delete rel tup
          in
          (R.Db.apply db u, u :: acc))
        (db, []) raw
    in
    let* seed = int_bound 100_000 in
    return (view, db, List.rev updates, seed))

let arb_setup =
  QCheck.make
    ~print:(fun (view, db, updates, seed) ->
      Format.asprintf "%a@.%a@.updates: %s@.seed=%d" R.View.pp view R.Db.pp db
        (String.concat "; " (List.map R.Update.to_string updates))
        seed)
    setup_gen

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let check_algorithm ~wants_complete algorithm (view, db, updates, seed) =
  let expected = R.Eval.view (R.Db.apply_all db updates) view in
  List.for_all
    (fun schedule ->
      let result =
        run ~algorithm ~schedule ~views:[ view ] ~db ~updates ()
      in
      let report = List.assoc "RV" result.Core.Engine.reports in
      let level =
        if wants_complete then report.Core.Consistency.complete
        else report.Core.Consistency.strongly_consistent
      in
      level
      && R.Bag.equal expected (List.assoc "RV" result.Core.Engine.final_mvs))
    [
      Core.Scheduler.Best_case;
      Core.Scheduler.Worst_case;
      Core.Scheduler.Random seed;
    ]

let count = 150

let eca_random_views =
  QCheck.Test.make ~name:"ECA strongly consistent on random views" ~count
    arb_setup
    (check_algorithm ~wants_complete:false "eca")

let lca_random_views =
  QCheck.Test.make ~name:"LCA complete on random views" ~count arb_setup
    (check_algorithm ~wants_complete:true "lca")

let sc_random_views =
  QCheck.Test.make ~name:"SC complete on random views" ~count arb_setup
    (check_algorithm ~wants_complete:true "sc")

let rv_random_views =
  QCheck.Test.make ~name:"RV strongly consistent on random views" ~count
    arb_setup
    (check_algorithm ~wants_complete:false "rv")

let ecal_random_views =
  QCheck.Test.make ~name:"ECAL strongly consistent on random views" ~count
    arb_setup
    (check_algorithm ~wants_complete:false "eca-local")

let eca_batched_random_views =
  QCheck.Test.make ~name:"batched ECA correct on random views" ~count:80
    arb_setup (fun (view, db, updates, seed) ->
      let expected = R.Eval.view (R.Db.apply_all db updates) view in
      List.for_all
        (fun batch_size ->
          let result =
            Core.Engine.run ~schedule:(Core.Scheduler.Random seed) ~batch_size
              ~creator:(Core.Registry.creator_exn "eca") ~sites:[ source db ]
              ~views:[ R.Viewdef.simple view ] ~updates ()
          in
          let report = List.assoc "RV" result.Core.Engine.reports in
          report.Core.Consistency.strongly_consistent
          && R.Bag.equal expected (List.assoc "RV" result.Core.Engine.final_mvs))
        [ 2; 4 ])

(* Streams of up to 8 updates whose values are Int or Float at random,
   so an equi-join often meets a numerically equal value of the other
   type. Deletes remove a tuple the source holds at that point. *)
let mixed_setup_gen =
  QCheck.Gen.(
    let value =
      map2
        (fun n float -> if float then R.Value.Float (float_of_int n) else R.Value.Int n)
        (int_bound 3) bool
    in
    let tuple_gen = map R.Tuple.of_list (list_size (return 2) value) in
    let* view = view_gen in
    let* rows = list_size (return 3) (list_size (int_bound 4) tuple_gen) in
    let db =
      R.Db.of_list
        (List.map2 (fun s r -> (s, R.Bag.of_list r)) (Array.to_list schemas) rows)
    in
    let* n = int_range 1 8 in
    let* raw =
      list_size (return n) (pair (oneofl [ "r1"; "r2"; "r3" ]) (pair tuple_gen bool))
    in
    let _, updates =
      List.fold_left
        (fun (db, acc) (rel, (tup, want_insert)) ->
          let held =
            R.Bag.fold
              (fun t n acc -> if n > 0 then Some t else acc)
              (R.Db.contents db rel) None
          in
          let u =
            match held with
            | Some t when not want_insert -> R.Update.delete rel t
            | _ -> R.Update.insert rel tup
          in
          (R.Db.apply db u, u :: acc))
        (db, []) raw
    in
    return (view, db, List.rev updates, 0))

(* Guarded compensation skips a pending term only when its join with
   the update provably fails, so it ships the fold reference's queries
   byte for byte and installs the same view: one update at a time and in
   batches of 3, with local evaluation on and off. *)
let eca_guarded_matches_fold =
  QCheck.Test.make ~name:"guarded ECA ships the fold reference's queries"
    ~count:1000
    (QCheck.make
       ~print:(fun (view, db, updates, _) ->
         Format.asprintf "%a@.%a@.updates: %s" R.View.pp view R.Db.pp db
           (String.concat "; " (List.map R.Update.to_string updates)))
       mixed_setup_gen)
    (fun (view, db, updates, _) ->
      List.for_all
        (fun (local_literal_eval, batch) ->
          eca_matches_fold ~local_literal_eval ~batch (R.Viewdef.simple view) db
            updates)
        [ (true, 1); (true, 3); (false, 1); (false, 3) ])

(* ------------------------------------------------------------------ *)
(* ECA-Local against its historical spelling                          *)
(* ------------------------------------------------------------------ *)

(* ECA-Local as it was first written, kept as a reference model: its own
   key-coverage test and its own on_update beside ECA's, where the
   registry's rung is a class table over ECA-SM's driver. *)
module Ref_eca_local = struct
  module Eca = Core.Eca
  module Algorithm = Core.Algorithm

  type t = {
    eca : Eca.t;
    view : R.View.t option;  (* Some: simple view, local deletes possible *)
  }

  let covers_key (view : R.View.t) rel =
    match R.View.source_schema view rel with
    | None -> false
    | Some schema ->
      schema.R.Schema.key <> []
      && List.for_all
           (fun k ->
             Option.is_some (R.View.proj_position view (R.Attr.qualified rel k)))
           schema.R.Schema.key

  let is_local (view : R.View.t) (u : R.Update.t) =
    match u.R.Update.kind with
    | R.Update.Insert -> false
    | R.Update.Delete -> covers_key view u.R.Update.rel

  let create (cfg : Algorithm.Config.t) =
    let view = R.Viewdef.as_simple cfg.Algorithm.Config.view in
    let keyed =
      Option.map
        (fun (v : R.View.t) ->
          (v, List.filter (covers_key v) (R.View.relation_names v)))
        view
    in
    { eca = Eca.create ?keyed cfg; view }

  let on_update t (u : R.Update.t) =
    match t.view with
    | None -> Eca.on_update t.eca u
    | Some view ->
      if not (R.View.mentions view u.R.Update.rel) then Algorithm.nothing
      else if is_local view u && Eca.quiescent t.eca then begin
        if Eca.key_delete t.eca ~rel:u.R.Update.rel u.R.Update.tuple then
          Algorithm.install (Eca.mv t.eca)
        else Algorithm.nothing
      end
      else Eca.on_update t.eca u

  let instance cfg =
    let t = create cfg in
    {
      Algorithm.name = "eca-local";
      interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
      on_update = on_update t;
      on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
      on_answer = (fun ~id a -> Eca.on_answer t.eca ~id a);
      on_quiesce = (fun () -> Algorithm.nothing);
      mv = (fun () -> Eca.mv t.eca);
      quiescent = (fun () -> Eca.quiescent t.eca);
      counters = (fun () -> None);
    }
end

(* r1 keyed on W, r2 on Y, r3 on (Y, Z): a random projection covers some
   keys, misses others and covers r3's only partly. *)
let keyed_schemas =
  [| r1_wkey; r2_ykey; R.Schema.of_names ~key:[ "Y"; "Z" ] "r3" [ "Y"; "Z" ] |]

(* A random view over [schemas], alone or as a union or difference
   with a second block of the same sources and projection under another
   random condition. *)
let viewdef_gen_over schemas =
  QCheck.Gen.(
    let* v = view_gen_over schemas in
    let* shape = int_bound 2 in
    if shape = 0 then return (R.Viewdef.simple v)
    else
      let cols = List.concat_map qualified_cols v.R.View.sources in
      let* extra_cond = cond_gen cols in
      let other =
        R.Viewdef.simple
          (R.View.natural_join ~name:"RV#1" ~extra_cond ~proj:v.R.View.proj
             v.R.View.sources)
      in
      let combine = if shape = 1 then R.Viewdef.union else R.Viewdef.diff in
      return (combine ~name:"RV" (R.Viewdef.simple v) other))

(* Key-respecting contents and streams: a row whose key is already held
   is dropped, an insert whose key is held deletes the holder instead,
   and a delete removes a held tuple. *)
let keyed_setup_gen =
  QCheck.Gen.(
    let tuple_gen = map R.Tuple.ints (list_size (return 2) (int_bound 4)) in
    let key_of (s : R.Schema.t) t =
      List.map (R.Tuple.get t) (R.Schema.key_positions s)
    in
    let same_key s a b = List.equal R.Value.equal (key_of s a) (key_of s b) in
    let* vd = viewdef_gen_over keyed_schemas in
    let* rows = list_size (return 3) (list_size (int_bound 4) tuple_gen) in
    let dedup s =
      List.fold_left
        (fun acc t -> if List.exists (same_key s t) acc then acc else t :: acc)
        []
    in
    let db =
      R.Db.of_list
        (List.map2
           (fun s r -> (s, R.Bag.of_list (dedup s r)))
           (Array.to_list keyed_schemas) rows)
    in
    let* n = int_range 1 8 in
    let* raw = list_size (return n) (triple (int_bound 2) tuple_gen bool) in
    let _, updates =
      List.fold_left
        (fun (db, acc) (i, tup, want_insert) ->
          let s = keyed_schemas.(i) in
          let rel = s.R.Schema.name in
          let held =
            R.Bag.fold
              (fun t n acc -> if n > 0 then t :: acc else acc)
              (R.Db.contents db rel) []
          in
          let u =
            match (List.find_opt (same_key s tup) held, held) with
            | Some holder, _ -> R.Update.delete rel holder
            | None, t :: _ when not want_insert -> R.Update.delete rel t
            | None, _ -> R.Update.insert rel tup
          in
          (R.Db.apply db u, u :: acc))
        (db, []) raw
    in
    let* seed = int_bound 100_000 in
    return (vd, db, List.rev updates, seed))

(* The registry's ECA-Local and the reference export byte-identical runs
   under every schedule, one update at a time and in batches of 3. *)
let ecal_matches_reference =
  QCheck.Test.make ~name:"ECAL runs = the historical ECAL reference"
    ~count:200
    (QCheck.make
       ~print:(fun (vd, db, updates, seed) ->
         Format.asprintf "%a@.%a@.updates: %s@.seed=%d" R.Viewdef.pp vd
           R.Db.pp db
           (String.concat "; " (List.map R.Update.to_string updates))
           seed)
       keyed_setup_gen)
    (fun (vd, db, updates, seed) ->
      let export creator schedule batch_size =
        Core.Json_export.result
          (Core.Engine.run ~schedule ~batch_size ~creator ~sites:[ source db ]
             ~views:[ vd ] ~updates ())
      in
      List.for_all
        (fun (schedule, batch_size) ->
          String.equal
            (export (Core.Registry.creator_exn "eca-local") schedule batch_size)
            (export Ref_eca_local.instance schedule batch_size))
        (List.concat_map
           (fun schedule -> [ (schedule, 1); (schedule, 3) ])
           Core.Scheduler.[ Best_case; Worst_case; Random seed ]))

(* ------------------------------------------------------------------ *)
(* ECA-Key tombstones against the list-scan reference                  *)
(* ------------------------------------------------------------------ *)

(* A keyed view ECA-Key accepts: some of the keyed relations, every key
   column of them projected plus a random subset of the rest, under a
   random extra condition. *)
let eca_key_view_gen =
  QCheck.Gen.(
    let* mask = int_range 1 7 in
    let sources =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list keyed_schemas)
    in
    let is_key (s : R.Schema.t) a =
      List.exists (fun k -> R.Attr.matches ~rel:s.R.Schema.name ~name:k a) s.R.Schema.key
    in
    let keys, others =
      List.partition
        (fun a -> List.exists (fun s -> is_key s a) sources)
        (List.concat_map qualified_cols sources)
    in
    let* keep = list_size (return (List.length others)) bool in
    let proj = keys @ List.filteri (fun i _ -> List.nth keep i) others in
    let* extra_cond = cond_gen (keys @ others) in
    return (R.View.natural_join ~name:"K" ~extra_cond ~proj sources))

(* Key-respecting streams interleaved with answer deliveries: [`Up]
   carries (relation, tuple, insert wanted, evaluate the answer now),
   [`Deliver k] delivers the k-th pending answer (mod their count), so
   answers arrive late and out of order; an answer evaluated at send
   time predates later deletes, which is what the tombstones filter.
   Three values per column make a key deleted, re-inserted and deleted
   again while its first tombstone is live a common case. *)
let eca_key_setup_gen =
  QCheck.Gen.(
    let tuple_gen = map R.Tuple.ints (list_size (return 2) (int_bound 2)) in
    let* view = eca_key_view_gen in
    let* rows = list_size (return 3) (list_size (int_bound 4) tuple_gen) in
    let key_of (s : R.Schema.t) t = List.map (R.Tuple.get t) (R.Schema.key_positions s) in
    let same_key s a b = List.equal R.Value.equal (key_of s a) (key_of s b) in
    let db =
      R.Db.of_list
        (List.map2
           (fun s r ->
             ( s,
               R.Bag.of_list
                 (List.fold_left
                    (fun acc t -> if List.exists (same_key s t) acc then acc else t :: acc)
                    [] r) ))
           (Array.to_list keyed_schemas) rows)
    in
    let* n = int_range 8 40 in
    let action =
      frequency
        [
          (3, map (fun (i, t, ins, now) -> `Up (i, t, ins, now))
                (quad (int_bound 2) tuple_gen bool bool));
          (2, map (fun k -> `Deliver k) (int_bound 8));
        ]
    in
    let* actions = list_size (return n) action in
    let _, steps =
      List.fold_left
        (fun (db, acc) -> function
          | `Deliver k -> (db, `Deliver k :: acc)
          | `Up (i, tup, want_insert, now) ->
            let s = keyed_schemas.(i) in
            let rel = s.R.Schema.name in
            let held =
              R.Bag.fold (fun t n acc -> if n > 0 then t :: acc else acc)
                (R.Db.contents db rel) []
            in
            let u =
              match (List.find_opt (same_key s tup) held, held) with
              | Some holder, _ -> R.Update.delete rel holder
              | None, t :: _ when not want_insert -> R.Update.delete rel t
              | None, _ -> R.Update.insert rel tup
            in
            (R.Db.apply db u, `Up (u, now) :: acc))
        (db, []) actions
    in
    return (view, db, List.rev steps))

let eca_key_matches_reference =
  QCheck.Test.make ~name:"ECA-Key tombstone table = the list-scan reference"
    ~count:500
    (QCheck.make
       ~print:(fun (view, db, steps) ->
         Format.asprintf "%a@.%a@.steps: %s" R.View.pp view R.Db.pp db
           (String.concat "; "
              (List.map
                 (function
                   | `Up (u, now) ->
                     R.Update.to_string u ^ if now then " (answer now)" else ""
                   | `Deliver k -> Printf.sprintf "deliver #%d" k)
                 steps)))
       eca_key_setup_gen)
    (fun (view, db, steps) ->
      let cfg = Core.Algorithm.Config.of_view_db view db in
      let t = Core.Eca_key.create cfg and r = Ref_eca_key.create cfg in
      let agree = ref true in
      let both (a : Core.Algorithm.outcome) (b : Core.Algorithm.outcome) =
        if
          not
            (List.equal
               (fun (i, q) (j, q') -> i = j && R.Query.equal q q')
               a.Core.Algorithm.send b.Core.Algorithm.send
            && List.equal R.Bag.equal a.Core.Algorithm.installs
                 b.Core.Algorithm.installs)
        then agree := false;
        a
      in
      let src = ref db and pending = ref [] in
      let deliver k =
        match !pending with
        | [] -> ()
        | l ->
          let id, q, early = List.nth l (k mod List.length l) in
          pending := List.filter (fun (i, _, _) -> i <> id) l;
          let answer =
            match early with Some a -> a | None -> R.Eval.query !src q
          in
          ignore
            (both (Core.Eca_key.on_answer t ~id answer) (Ref_eca_key.on_answer r ~id answer))
      in
      List.iter
        (function
          | `Deliver k -> deliver k
          | `Up (u, now) ->
            src := R.Db.apply !src u;
            let o = both (Core.Eca_key.on_update t u) (Ref_eca_key.on_update r u) in
            pending :=
              !pending
              @ List.map
                  (fun (id, q) -> (id, q, if now then Some (R.Eval.query !src q) else None))
                  o.Core.Algorithm.send)
        steps;
      (* the rest arrive late, from the middle out *)
      while !pending <> [] do
        deliver (List.length !pending / 2)
      done;
      !agree
      && R.Bag.equal (Core.Eca_key.mv t) (Ref_eca_key.mv r)
      && R.Bag.equal (Core.Eca_key.collect t) (Ref_eca_key.collect r))

(* ------------------------------------------------------------------ *)
(* LCA against its historical spelling                                *)
(* ------------------------------------------------------------------ *)

(* Random views, alone, as a union and as a difference, with streams of
   up to 8 updates so that compensations pile up on pending pieces. *)
let lca_setup_gen =
  QCheck.Gen.(
    let tuple_gen = map R.Tuple.ints (list_size (return 2) (int_bound 3)) in
    let* vd = viewdef_gen_over schemas in
    let* rows = list_size (return 3) (list_size (int_bound 4) tuple_gen) in
    let db =
      R.Db.of_list
        (List.map2 (fun s r -> (s, R.Bag.of_list r)) (Array.to_list schemas) rows)
    in
    let* n = int_range 1 8 in
    let* raw =
      list_size (return n) (pair (oneofl [ "r1"; "r2"; "r3" ]) (pair tuple_gen bool))
    in
    let _, updates =
      List.fold_left
        (fun (db, acc) (rel, (tup, want_insert)) ->
          let u =
            if want_insert || R.Bag.count (R.Db.contents db rel) tup <= 0 then
              R.Update.insert rel tup
            else R.Update.delete rel tup
          in
          (R.Db.apply db u, u :: acc))
        (db, []) raw
    in
    return (vd, db, List.rev updates))

(* The registry's LCA (ECA's in-order install policy) and the reference
   export byte-identical runs under Best, Worst and Random 7, one update
   at a time and in batches of 3; and as the LCA view of a two-view
   catalog beside an ECA view of the same query, with sharing on. *)
let lca_matches_reference =
  QCheck.Test.make ~name:"LCA = the historical LCA reference" ~count:200
    (QCheck.make
       ~print:(fun (vd, db, updates) ->
         Format.asprintf "%a@.%a@.updates: %s" R.Viewdef.pp vd R.Db.pp db
           (String.concat "; " (List.map R.Update.to_string updates)))
       lca_setup_gen)
    (fun (vd, db, updates) ->
      let export ?(share_deltas = false) creator views schedule batch_size =
        Core.Json_export.result
          (Core.Engine.run ~schedule ~batch_size ~share_deltas ~creator
             ~sites:[ source db ] ~views ~updates ())
      in
      let lca_view = R.Viewdef.make ~name:"RL" vd.R.Viewdef.parts in
      let catalog lca (cfg : Core.Algorithm.Config.t) =
        if cfg.Core.Algorithm.Config.view.R.Viewdef.name = "RL" then lca cfg
        else Core.Eca.instance cfg
      in
      List.for_all
        (fun (schedule, batch_size) ->
          String.equal
            (export (Core.Registry.creator_exn "lca") [ vd ] schedule batch_size)
            (export Ref_lca.instance [ vd ] schedule batch_size)
          && String.equal
               (export ~share_deltas:true (catalog Core.Eca.lca) [ vd; lca_view ]
                  schedule batch_size)
               (export ~share_deltas:true (catalog Ref_lca.instance) [ vd; lca_view ]
                  schedule batch_size))
        (List.concat_map
           (fun schedule -> [ (schedule, 1); (schedule, 3) ])
           Core.Scheduler.[ Best_case; Worst_case; Random 7 ]))

let suite =
  List.map Helpers.qcheck
    [
      eca_guarded_matches_fold;
      eca_random_views;
      lca_random_views;
      sc_random_views;
      rv_random_views;
      ecal_random_views;
      eca_batched_random_views;
      ecal_matches_reference;
      eca_key_matches_reference;
      lca_matches_reference;
    ]
