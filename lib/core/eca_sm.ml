module R = Relational
module S = R.Selfmaint

(* [analysis] is the class table deciding which updates skip the source
   round trip: [Selfmaint.analyze] for ECA-SM, [key_delete_table] for
   ECA-Local. *)
type t = {
  analysis : S.t;
  eca : Eca.t;
  mutable aux_db : R.Db.t;
  mutable sm_self : int;
  mutable sm_aux : int;
  mutable sm_fallback : int;
}

(* The auto-rung ladder picks ECA-SM only when it guarantees M = 0 (every
   class locally answerable) *and* it improves on what plain ECA already
   does: views whose every class is literal (single-relation parts) are
   handled without base data by ECA's literal-term evaluation, so ECA-SM
   would only add a classification check per update there. The verdicts
   alone decide, so nothing is staged for a view that may never run
   here. *)
let applicable (vd : R.Viewdef.t) =
  let verdicts = S.verdicts vd in
  List.for_all (function S.Remote _ -> false | _ -> true) verdicts
  && List.exists (fun v -> v <> S.Self S.Literal) verdicts

let is_key_delete (c : S.class_report) =
  match c.S.cls_plan with
  | S.Use_key_delete -> true
  | S.Use_local _ | S.Use_fallback _ -> false

(* ECA-Local's table (Section 5.5): the projected key pins down exactly
   the view tuples derived from a deleted base tuple ([TB88]-style
   self-maintainability). Insertions into single-relation parts are
   already local under ECA, through its literal-term evaluation. *)
let key_delete_table (vd : R.Viewdef.t) =
  let simple = R.Viewdef.as_simple vd in
  let keyed rel =
    Option.is_some (Option.bind simple (fun v -> R.View.key_positions v rel))
  in
  let cls rel kind =
    let verdict, plan =
      if kind = R.Update.Delete && keyed rel then
        (S.Self S.Key_delete, S.Use_key_delete)
      else
        let why = "not a key-covered deletion" in
        (S.Remote why, S.Use_fallback why)
    in
    { S.cls_rel = rel; cls_kind = kind; cls_verdict = verdict; cls_plan = plan }
  in
  let classes =
    List.concat_map
      (fun rel -> [ cls rel R.Update.Insert; cls rel R.Update.Delete ])
      (R.Viewdef.relation_names vd)
  in
  { S.view = vd; classes; auxes = []; fully_local = false }

(* ECA-Local only improves on plain ECA when some deletion can actually
   be handled locally; the auto-rung ladder picks it over ECA exactly
   then — on other views it is ECA plus a classification per update. *)
let local_capable vd = List.exists is_key_delete (key_delete_table vd).S.classes

let create_with ~analysis (cfg : Algorithm.Config.t) =
  let seed_from =
    match (S.maintained analysis, cfg.Algorithm.Config.init_db) with
    | [], _ -> R.Db.empty
    | _ :: _, Some db -> db
    | _ :: _, None ->
      raise
        (Algorithm.Not_applicable
           "ECA-SM needs the initial base relations (Config.init_db) to \
            seed its auxiliary views")
  in
  (* Index the view for the classes answered by a local key-delete (both
     tables mark those only on simple views). *)
  let keyed =
    Option.map
      (fun v ->
        ( v,
          List.filter_map
            (fun c -> if is_key_delete c then Some c.S.cls_rel else None)
            analysis.S.classes ))
      (R.Viewdef.as_simple cfg.Algorithm.Config.view)
  in
  {
    analysis;
    eca = Eca.create ?keyed cfg;
    aux_db = S.seed_aux_db analysis seed_from;
    sm_self = 0;
    sm_aux = 0;
    sm_fallback = 0;
  }

let create cfg = create_with ~analysis:(S.analyze cfg.Algorithm.Config.view) cfg

let mv t = Eca.mv t.eca

let install t = Algorithm.install (Eca.mv t.eca)

let on_update t (u : R.Update.t) =
  (* [None] iff the view does not mention the relation. *)
  match S.find_class t.analysis ~rel:u.R.Update.rel ~kind:u.R.Update.kind with
  | None -> Algorithm.nothing
  | Some cls ->
    let fallback () =
      t.sm_fallback <- t.sm_fallback + 1;
      Eca.on_update t.eca u
    in
    let outcome =
      (* The conservative ordering protocol (see the interface): local
         handling only when no query is pending, which can only happen
         once some class fell back to the compensating path. *)
      if not (Eca.quiescent t.eca) then fallback ()
      else
        match cls.S.cls_plan with
        | S.Use_fallback _ -> fallback ()
        | S.Use_key_delete ->
          t.sm_self <- t.sm_self + 1;
          if Eca.key_delete t.eca ~rel:u.R.Update.rel u.R.Update.tuple then
            install t
          else Algorithm.nothing
        | S.Use_local _ -> (
          match S.delta t.analysis ~aux_db:t.aux_db u with
          | None -> fallback ()
          | Some d ->
            (match cls.S.cls_verdict with
            | S.Aux _ -> t.sm_aux <- t.sm_aux + 1
            | _ -> t.sm_self <- t.sm_self + 1);
            if R.Bag.is_empty d then Algorithm.nothing
            else begin
              Eca.apply_local t.eca d;
              install t
            end)
    in
    (* The auxiliary views mirror their base relations on every update,
       whichever path handled it — they must track the source exactly to
       serve future classes. *)
    t.aux_db <- S.apply_aux t.analysis t.aux_db u;
    outcome

let counters t =
  let tuples, bytes = S.storage t.analysis t.aux_db in
  {
    Metrics.sm_self = t.sm_self;
    sm_aux = t.sm_aux;
    sm_fallback = t.sm_fallback;
    sm_aux_views = List.length (S.maintained t.analysis);
    sm_aux_tuples = tuples;
    sm_aux_bytes = bytes;
  }

let instance_of ~name ~analysis ~counters (cfg : Algorithm.Config.t) =
  let t = create_with ~analysis:(analysis cfg.Algorithm.Config.view) cfg in
  {
    Algorithm.name;
    (* a foreign update finds no class: a stateless no-op *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> Eca.on_answer t.eca ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> Eca.quiescent t.eca);
    counters = (fun () -> counters t);
  }

let instance =
  instance_of ~name:"eca-sm" ~analysis:S.analyze ~counters:(fun t ->
      Some (counters t))

let local_instance =
  instance_of ~name:"eca-local" ~analysis:key_delete_table ~counters:(fun _ ->
      None)
