module R = Relational

type t = {
  eca : Eca.t;
  view : R.View.t option;  (* Some: simple view, local deletes possible *)
}

(* An update is autonomously computable at the warehouse when it is a
   deletion whose relation has its declared key projected by the view
   ([TB88]-style self-maintainability; single-relation views are already
   handled without base data by ECA's literal-term evaluation). *)
let is_local (view : R.View.t) (u : R.Update.t) =
  match u.R.Update.kind with
  | R.Update.Insert -> false
  | R.Update.Delete -> Mview.covers_key view u.R.Update.rel

(* ECAL only improves on plain ECA when some deletion can actually be
   handled locally: a simple view projecting at least one base
   relation's declared key. The catalog's auto-rung ladder picks ECAL
   over ECA exactly in that case — on other views ECAL is ECA with an
   extra classification check per update. *)
let local_capable (vd : R.Viewdef.t) =
  match R.Viewdef.as_simple vd with
  | None -> false
  | Some v ->
    List.exists
      (fun (s : R.Schema.t) -> Mview.covers_key v s.R.Schema.name)
      v.R.View.sources

let create (cfg : Algorithm.Config.t) =
  (* the compensating fallback works on any viewdef; local key-deletes
     need a simple SPJ view, so compound views simply never go local *)
  let view = R.Viewdef.as_simple cfg.view in
  let keyed =
    Option.map
      (fun (v : R.View.t) ->
        ( v,
          List.filter (Mview.covers_key v) (R.View.relation_names v) ))
      view
  in
  { eca = Eca.create ?keyed cfg; view }

let mv t = Eca.mv t.eca

let quiescent t = Eca.quiescent t.eca

let on_update t (u : R.Update.t) =
  match t.view with
  | None -> Eca.on_update t.eca u
  | Some view ->
  if not (R.View.mentions view u.R.Update.rel) then Algorithm.nothing
  else if is_local view u && Eca.quiescent t.eca then begin
    (* The conservative ordering protocol: local processing is safe only
       when no query is pending — otherwise pending answers and future
       compensations would have to be split around it (the bookkeeping the
       paper leaves as future work). With pending work the update falls
       back to the compensating path below. *)
    if Eca.key_delete t.eca ~rel:u.R.Update.rel u.R.Update.tuple then
      Algorithm.install (Eca.mv t.eca)
    else Algorithm.nothing
  end
  else Eca.on_update t.eca u

let on_answer t ~id answer = Eca.on_answer t.eca ~id answer

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "eca-local";
    (* on_update guards with [View.mentions] before consulting the
       locality analysis; foreign updates are a stateless no-op. *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> []);
  }
