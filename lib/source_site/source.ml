module R = Relational

type event =
  | S_up of R.Update.t
  | S_ddl of R.Update.ddl
  | S_qu of {
      id : int;
      query : R.Query.t;
      answer : R.Bag.t;
      cost : Storage.Cost.t;
    }

type t = {
  mutable db : R.Db.t;
  catalog : Storage.Catalog.t;
  mutable log : event list;  (* newest first *)
  mutable stale_answers : int;  (* queries answered empty as schema-stale *)
}

let create ?(catalog = Storage.Catalog.make ()) db =
  { db; catalog; log = []; stale_answers = 0 }

let db t = t.db

let catalog t = t.catalog

let execute_update t u =
  t.db <- R.Db.apply t.db u;
  t.log <- S_up u :: t.log

let execute_ddl t d =
  t.db <- R.Evolve.db t.db d;
  t.log <- S_ddl d :: t.log

(* A query staged before a schema change names the pre-change schemas in
   its slots; evaluating it against the evolved database would read
   columns that moved or vanished. Such queries are answered empty, at
   zero cost — the warehouse retired their routes when it processed the
   change, so the answer is a tombstone, not data. *)
let stale_query t q =
  List.exists
    (fun (term : R.Term.t) ->
      List.exists
        (fun slot ->
          let s = R.Term.slot_schema slot in
          match R.Db.schema_opt t.db s.R.Schema.name with
          | None -> true
          | Some cur -> not (R.Schema.equal cur s))
        term.R.Term.slots)
    (R.Query.terms q)

let answer_query t ~id q =
  if stale_query t q then begin
    let answer = R.Bag.empty and cost = Storage.Cost.zero in
    t.stale_answers <- t.stale_answers + 1;
    t.log <- S_qu { id; query = q; answer; cost } :: t.log;
    (answer, cost)
  end
  else begin
    let { Storage.Executor.answer; cost; plans = _ } =
      Storage.Executor.run t.catalog t.db q
    in
    t.log <- S_qu { id; query = q; answer; cost } :: t.log;
    (answer, cost)
  end

let stale_answers t = t.stale_answers

let events t = List.rev t.log
