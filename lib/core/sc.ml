module R = Relational

type t = {
  view : R.Viewdef.t;
  staged : R.Delta_program.staged;
  mutable replica : R.Db.t;
  mutable mv : R.Bag.t;
}

let create (cfg : Algorithm.Config.t) =
  match cfg.init_db with
  | None ->
    raise
      (Algorithm.Not_applicable
         "SC needs the initial base relations (Config.init_db) to seed its \
          replica")
  | Some db ->
    {
      view = cfg.view;
      staged = R.Delta_program.stage cfg.view;
      replica = db;
      mv = cfg.init_mv;
    }

let mv t = t.mv

let replica t = t.replica

let quiescent _ = true

(* Centralized immediate maintenance on the local replica — no source
   round-trip, no anomaly window. The update's staged program computes
   the same bag [Centralized.step] interprets. *)
let on_update t (u : R.Update.t) =
  let replica' = R.Db.apply t.replica u in
  let delta =
    match R.Delta_program.of_update t.staged u with
    | None -> R.Bag.empty
    | Some prog -> R.Delta_program.apply prog replica' u.R.Update.tuple
  in
  t.replica <- replica';
  if R.Bag.is_empty delta then Algorithm.nothing
  else begin
    t.mv <- Mview.apply_delta t.mv delta;
    Algorithm.install t.mv
  end

(* Batched apply: one program pass per update-class run instead of one
   delta query per update, accumulated straight into the view. Restricted
   to simple (single positive part) views so the install/no-install
   decision matches the sequential replay exactly — a simple view's
   per-run join rows all share one sign, so the run changes the view
   (the pass returns a new bag rather than [into] itself) iff some
   per-update delta was nonempty; mixed-sign compound views could cancel
   across updates and diverge. *)
let apply_batch t (us : R.Update.t list) =
  if R.Viewdef.is_simple t.view then begin
    let installed = ref false in
    List.iter
      (fun run ->
        match run with
        | [] -> ()
        | (first : R.Update.t) :: _ ->
          let replica' = R.Db.apply_all t.replica run in
          t.replica <- replica';
          (match R.Delta_program.of_update t.staged first with
           | None -> ()
           | Some prog ->
             let mv' =
               R.Delta_program.apply_batch ~into:t.mv prog replica'
                 (List.map (fun (u : R.Update.t) -> u.R.Update.tuple) run)
             in
             if mv' != t.mv then begin
               t.mv <- mv';
               installed := true
             end))
      (R.Delta_program.runs us);
    if !installed then Algorithm.install t.mv else Algorithm.nothing
  end
  else Algorithm.sequential_batch (on_update t) us

(* A batch is one atomic delivery: when the replica rejects one of its
   updates (a duplicated or reordered notification on a raw faulty edge
   can break a declared key or delete an absent tuple), [replica] and
   [mv] — both persistent values — are restored before the rejection
   propagates, leaving the instance as if the batch never arrived. *)
let on_batch t us =
  let replica = t.replica and mv = t.mv in
  try apply_batch t us
  with e ->
    t.replica <- replica;
    t.mv <- mv;
    raise e

let on_answer _ ~id:_ _ = Algorithm.nothing

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "sc";
    (* SC replays every update into its replica, so its interest is the
       replica's schema — not just the view's relations (a non-view
       relation of the same source still has to reach the replica). An
       update outside the schema would make [Db.apply] fail; declaring
       the schema keeps such updates from ever being dispatched here. *)
    interest = Some (R.Db.relation_names t.replica);
    on_update = on_update t;
    on_batch = (fun us -> on_batch t us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }
