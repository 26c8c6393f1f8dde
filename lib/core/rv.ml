module R = Relational

type t = {
  view : R.Viewdef.t;
  mutable mv : R.Bag.t;
  period : int;
  mutable count : int;  (* updates since the last recompute request *)
  mutable pending : int R.Fqueue.t;  (* outstanding recompute query ids *)
  mutable next_id : int;
}

let create (cfg : Algorithm.Config.t) =
  if cfg.rv_period < 1 then invalid_arg "Rv.create: rv_period must be >= 1";
  {
    view = cfg.view;
    mv = cfg.init_mv;
    period = cfg.rv_period;
    count = 0;
    pending = R.Fqueue.empty;
    next_id = 0;
  }

let mv t = t.mv

let quiescent t = R.Fqueue.is_empty t.pending

let pending t = R.Fqueue.to_list t.pending

let send_recompute t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.pending <- R.Fqueue.push t.pending id;
  Algorithm.send_one id (R.Viewdef.full_query t.view)

let on_update t (u : R.Update.t) =
  if not (R.Viewdef.mentions t.view u.R.Update.rel) then Algorithm.nothing
  else begin
    t.count <- t.count + 1;
    if t.count >= t.period then begin
      t.count <- 0;
      send_recompute t
    end
    else Algorithm.nothing
  end

let on_answer t ~id answer =
  t.pending <- snd (R.Fqueue.remove_first (Int.equal id) t.pending);
  (* The answer is the full view at some source state: replace, don't
     merge. With FIFO delivery a later recompute always reflects a later
     state, so last-writer-wins is order-correct. *)
  t.mv <- answer;
  Algorithm.install t.mv

(* A partial period at the end of the run would leave the view stale
   forever; the final recompute keeps RV convergent on finite executions,
   matching how Section 1.2 uses it. *)
let on_quiesce t =
  if t.count > 0 then begin
    t.count <- 0;
    send_recompute t
  end
  else Algorithm.nothing

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "rv";
    (* on_update counts only updates the view mentions (the [mentions]
       guard above), so foreign updates are a stateless no-op. *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> on_quiesce t);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }
