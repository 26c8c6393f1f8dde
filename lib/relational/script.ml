type t = {
  tables : Schema.t list;
  views : Viewdef.t list;
  initial : Update.t list;
  updates : Update.t list;
  ddls : (int * Update.ddl) list;
}

let table t name =
  List.find_opt (fun (s : Schema.t) -> String.equal s.Schema.name name) t.tables

let view t name =
  List.find_opt
    (fun (v : Viewdef.t) -> String.equal v.Viewdef.name name)
    t.views

let initial_db t =
  let db =
    List.fold_left (fun db s -> Db.add_relation db s) Db.empty t.tables
  in
  Db.apply_all db t.initial
