module R = Relational

type t = {
  view : R.Viewdef.t;
  mutable mv : R.Bag.t;
  mutable pending : int;
  mutable next_id : int;
}

let create (cfg : Algorithm.Config.t) =
  { view = cfg.view; mv = cfg.init_mv; pending = 0; next_id = 0 }

let mv t = t.mv

let quiescent t = t.pending = 0

let on_update t (u : R.Update.t) =
  let q = R.Viewdef.delta t.view u in
  if R.Query.is_empty q then Algorithm.nothing
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.pending <- t.pending + 1;
    Algorithm.send_one id q
  end

let on_answer t ~id:_ answer =
  t.pending <- t.pending - 1;
  t.mv <- Mview.apply_delta t.mv answer;
  Algorithm.install t.mv

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "basic";
    (* the view delta of a foreign update is empty, so on_update returns
       [nothing] without touching state. *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }
