module R = Relational

exception Not_applicable of string

type t = {
  view : R.Viewdef.t;
  simple : R.View.t option;
  analysis : R.Selfmaint.t;
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
   would only add a classification check per update there. *)
let applicable (vd : R.Viewdef.t) =
  let a = R.Selfmaint.analyze vd in
  a.R.Selfmaint.fully_local
  && List.exists
       (fun (c : R.Selfmaint.class_report) ->
         c.R.Selfmaint.cls_verdict <> R.Selfmaint.Self R.Selfmaint.Literal)
       a.R.Selfmaint.classes

let create (cfg : Algorithm.Config.t) =
  let view = cfg.Algorithm.Config.view in
  let analysis = R.Selfmaint.analyze view in
  let seed_from =
    match (R.Selfmaint.maintained analysis, cfg.Algorithm.Config.init_db) with
    | [], _ -> R.Db.empty
    | _ :: _, Some db -> db
    | _ :: _, None ->
      raise
        (Not_applicable
           "ECA-SM needs the initial base relations (Config.init_db) to \
            seed its auxiliary views")
  in
  let simple = R.Viewdef.as_simple view in
  (* Index the view for the classes answered by a local key-delete. *)
  let keyed =
    Option.map
      (fun v ->
        ( v,
          List.filter_map
            (fun (c : R.Selfmaint.class_report) ->
              match c.R.Selfmaint.cls_plan with
              | R.Selfmaint.Use_key_delete -> Some c.R.Selfmaint.cls_rel
              | R.Selfmaint.Use_local _ | R.Selfmaint.Use_fallback _ -> None)
            analysis.R.Selfmaint.classes ))
      simple
  in
  {
    view;
    simple;
    analysis;
    eca = Eca.create ?keyed cfg;
    aux_db = R.Selfmaint.seed_aux_db analysis seed_from;
    sm_self = 0;
    sm_aux = 0;
    sm_fallback = 0;
  }

let analysis t = t.analysis

let mv t = Eca.mv t.eca

let quiescent t = Eca.quiescent t.eca

let install t = Algorithm.install (Eca.mv t.eca)

let on_update t (u : R.Update.t) =
  if not (R.Viewdef.mentions t.view u.R.Update.rel) then Algorithm.nothing
  else begin
    let fallback () =
      t.sm_fallback <- t.sm_fallback + 1;
      Eca.on_update t.eca u
    in
    let outcome =
      (* Local handling only when no query is pending — the same
         conservative ordering protocol as ECAL: interleaving local
         installs with in-flight compensations would require splitting
         answers. Under contention (only possible when some class fell
         back to the compensating path) the update takes that path too. *)
      if not (Eca.quiescent t.eca) then fallback ()
      else
        match
          R.Selfmaint.find_class t.analysis ~rel:u.R.Update.rel
            ~kind:u.R.Update.kind
        with
        | None -> Algorithm.nothing
        | Some cls -> (
          match cls.R.Selfmaint.cls_plan with
          | R.Selfmaint.Use_fallback _ -> fallback ()
          | R.Selfmaint.Use_key_delete -> (
            match t.simple with
            | None -> fallback ()
            | Some _ ->
              t.sm_self <- t.sm_self + 1;
              if Eca.key_delete t.eca ~rel:u.R.Update.rel u.R.Update.tuple
              then install t
              else Algorithm.nothing)
          | R.Selfmaint.Use_local _ -> (
            match R.Selfmaint.delta t.analysis ~aux_db:t.aux_db u with
            | None -> fallback ()
            | Some d ->
              (match cls.R.Selfmaint.cls_verdict with
              | R.Selfmaint.Aux _ -> t.sm_aux <- t.sm_aux + 1
              | _ -> t.sm_self <- t.sm_self + 1);
              if R.Bag.is_empty d then Algorithm.nothing
              else begin
                Eca.apply_local t.eca d;
                install t
              end))
    in
    (* The auxiliary views mirror their base relations on every update,
       whichever path handled it — they must track the source exactly to
       serve future classes. *)
    t.aux_db <- R.Selfmaint.apply_aux t.analysis t.aux_db u;
    outcome
  end

let on_answer t ~id answer = Eca.on_answer t.eca ~id answer

let counters t =
  let tuples, bytes = R.Selfmaint.storage t.analysis t.aux_db in
  [
    ("sm_self", t.sm_self);
    ("sm_aux", t.sm_aux);
    ("sm_fallback", t.sm_fallback);
    ("sm_aux_views", List.length (R.Selfmaint.maintained t.analysis));
    ("sm_aux_tuples", tuples);
    ("sm_aux_bytes", bytes);
  ]

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "eca-sm";
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> counters t);
  }
