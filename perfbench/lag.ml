(* Freshness in logical time, computed from a run's trace.

   The clock is the number of source updates executed so far. For every
   (view, update) pair where the update's source event lists the view as
   affected, the lag is the clock at which an installed warehouse state
   first reflects the update, minus the update's own position, plus one:
   1 means the view reflected the update before any further update ran.
   An installed state reflects update i when it equals the view's source
   state after some event j >= i. Updates still unreflected at the end
   of the run count up to the end.

   Installed states are matched against past source states through a
   fingerprint index (an order-independent hash of the bag, confirmed by
   bag equality), so the pass stays linear in trace length. *)

module R = Relational

let fingerprint bag =
  R.Bag.fold (fun t c acc -> acc + Hashtbl.hash (R.Tuple.hash t, c)) bag 0

type view = {
  index : (int, (int * R.Bag.t) list) Hashtbl.t;
      (* fingerprint -> (clock, source state), newest first *)
  mutable src : R.Bag.t;  (* newest source state *)
  mutable src_fp : int;
  mutable mv : R.Bag.t;  (* currently installed state *)
  mutable mv_fp : int;
  pending : int Queue.t;  (* clocks of updates not yet reflected *)
}

let new_view initial =
  let fp = fingerprint initial in
  let index = Hashtbl.create 64 in
  Hashtbl.replace index fp [ (0, initial) ];
  {
    index;
    src = initial;
    src_fp = fp;
    mv = initial;
    mv_fp = fp;
    pending = Queue.create ();
  }

(* All lags, one per (view, update) pair, in no particular order. *)
let of_trace trace =
  let views = Hashtbl.create 16 in
  List.iter
    (fun (name, b) -> Hashtbl.replace views name (new_view b))
    (Core.Trace.initial_views trace);
  let lags = ref [] in
  let clock = ref 0 in
  let reflect v upto =
    while (not (Queue.is_empty v.pending)) && Queue.peek v.pending <= upto do
      lags := (!clock - Queue.pop v.pending + 1) :: !lags
    done
  in
  let on_source name state =
    match Hashtbl.find_opt views name with
    | None -> ()
    | Some v ->
      (* A state physically unchanged since the last event keeps its
         fingerprint: views an update cannot touch cost nothing. *)
      let fp = if state == v.src then v.src_fp else fingerprint state in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt v.index fp) in
      Hashtbl.replace v.index fp ((!clock, state) :: bucket);
      v.src <- state;
      v.src_fp <- fp;
      if fp = v.mv_fp && R.Bag.equal v.mv state then reflect v !clock
  in
  let on_install name state =
    match Hashtbl.find_opt views name with
    | None -> ()
    | Some v ->
      let fp = fingerprint state in
      v.mv <- state;
      v.mv_fp <- fp;
      let bucket = Option.value ~default:[] (Hashtbl.find_opt v.index fp) in
      (match List.find_opt (fun (_, s) -> R.Bag.equal s state) bucket with
      | Some (j, _) -> reflect v j
      | None -> ())
  in
  let installs =
    List.iter (fun (name, states) -> List.iter (on_install name) states)
  in
  List.iter
    (function
      | Core.Trace.Source_update { updates; source_views } ->
        let first = !clock + 1 in
        clock := !clock + List.length updates;
        List.iter
          (fun (name, state) ->
            (match Hashtbl.find_opt views name with
            | Some v ->
              for i = first to !clock do
                Queue.push i v.pending
              done
            | None -> ());
            on_source name state)
          source_views
      | Core.Trace.Source_ddl { source_views; _ } ->
        List.iter (fun (name, state) -> on_source name state) source_views
      | Core.Trace.Warehouse_note { installs = is; _ }
      | Core.Trace.Warehouse_answer { installs = is; _ }
      | Core.Trace.Quiesce_probe { installs = is; _ }
      | Core.Trace.Warehouse_ddl { installs = is; _ } ->
        installs is
      | Core.Trace.Source_answer _ -> ())
    (Core.Trace.entries trace);
  Hashtbl.iter (fun _ v -> reflect v max_int) views;
  !lags
