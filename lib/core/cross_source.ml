module R = Relational

(* The naive multi-source maintenance strategy one would try first: when
   an update U arrives for a view spanning several sources, fetch every
   other base relation in full (identity queries routed to their owning
   sources), join locally, and apply V<U> over the assembled snapshot.

   Each fetch is answered at a DIFFERENT time at a DIFFERENT site, so the
   assembled "state" may never have existed anywhere — the exact problem
   Section 7 flags for views over multiple sources (and which the later
   Strobe family of algorithms addresses). This module exists as the
   executable form of that caveat: the test suite shows it converging
   under quiescent interleavings and violating weak consistency under
   racing ones, which is precisely why the engine rejects cross-source
   views unless the caller opts into this demonstrably unsafe strategy. *)

type fetch = {
  f_update : R.Update.t;
  mutable awaiting : string list;  (* relations still to arrive *)
  mutable fetched : (string * R.Bag.t) list;
}

type t = {
  view : R.View.t;
  mutable mv : R.Bag.t;
  pending : (int, string * fetch) Hashtbl.t;  (* query id -> (rel, fetch) *)
  mutable next_id : int;
}

let identity_query (s : R.Schema.t) =
  R.Query.of_view
    (R.View.make ~name:("__fetch_" ^ s.R.Schema.name)
       ~proj:
         (List.map (fun c -> R.Attr.qualified s.R.Schema.name c)
            (R.Schema.attr_names s))
       ~cond:R.Predicate.True [ s ])

let create (cfg : Algorithm.Config.t) =
  let view =
    match R.Viewdef.as_simple cfg.view with
    | Some v -> v
    | None ->
      raise
        (Algorithm.Not_applicable
           "fetch-join demonstrates simple cross-source views only")
  in
  { view; mv = cfg.init_mv; pending = Hashtbl.create 16; next_id = 0 }

let mv t = t.mv

let quiescent t = Hashtbl.length t.pending = 0

let on_update t (u : R.Update.t) =
  if not (R.View.mentions t.view u.R.Update.rel) then Algorithm.nothing
  else begin
    let others =
      List.filter
        (fun (s : R.Schema.t) ->
          not (String.equal s.R.Schema.name u.R.Update.rel))
        t.view.R.View.sources
    in
    match others with
    | [] ->
      (* single-relation view: the delta is computable locally *)
      let delta = R.Eval.literal_query (R.Query.view_delta t.view u) in
      t.mv <- Mview.apply_delta t.mv delta;
      Algorithm.install t.mv
    | _ ->
      let fetch =
        {
          f_update = u;
          awaiting = List.map (fun (s : R.Schema.t) -> s.R.Schema.name) others;
          fetched = [];
        }
      in
      let sends =
        List.map
          (fun (s : R.Schema.t) ->
            let id = t.next_id in
            t.next_id <- id + 1;
            Hashtbl.replace t.pending id (s.R.Schema.name, fetch);
            (id, identity_query s))
          others
      in
      { Algorithm.send = sends; installs = [] }
  end

let on_answer t ~id answer =
  match Hashtbl.find_opt t.pending id with
  | None -> Algorithm.nothing
  | Some (rel, fetch) ->
    Hashtbl.remove t.pending id;
    fetch.fetched <- (rel, answer) :: fetch.fetched;
    fetch.awaiting <- List.filter (fun r -> not (String.equal r rel)) fetch.awaiting;
    if fetch.awaiting <> [] then Algorithm.nothing
    else begin
      (* assemble the (possibly never-existing) snapshot and apply V<U> *)
      let db =
        List.fold_left
          (fun db (s : R.Schema.t) ->
            let contents =
              match List.assoc_opt s.R.Schema.name fetch.fetched with
              | Some bag -> bag
              | None -> R.Bag.empty (* the updated relation: unused below *)
            in
            R.Db.add_relation ~contents db s)
          R.Db.empty t.view.R.View.sources
      in
      let delta = R.Eval.query db (R.Query.view_delta t.view fetch.f_update) in
      t.mv <- Mview.apply_delta t.mv delta;
      Algorithm.install t.mv
    end

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "fetch-join";
    (* on_update guards with [mentions]; foreign updates are a stateless
       no-op even across sources. *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> None);
  }
