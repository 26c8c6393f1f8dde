module R = Relational

exception Not_applicable of string

module Config = struct
  type t = {
    view : R.Viewdef.t;
    init_mv : R.Bag.t;
    init_db : R.Db.t option;
    rv_period : int;
    local_literal_eval : bool;
  }

  let make ?init_db ?(rv_period = 1) ?(local_literal_eval = true) ~view
      ~init_mv () =
    { view; init_mv; init_db; rv_period; local_literal_eval }

  let of_db ?rv_period ?local_literal_eval view db =
    make ?rv_period ?local_literal_eval ~view
      ~init_mv:(R.Viewdef.eval db view)
      ~init_db:db ()

  let of_view_db ?rv_period ?local_literal_eval view db =
    of_db ?rv_period ?local_literal_eval (R.Viewdef.simple view) db
end

type outcome = {
  send : (int * R.Query.t) list;
  installs : R.Bag.t list;
}

let nothing = { send = []; installs = [] }

let install mv = { send = []; installs = [ mv ] }

let send_one id q = { send = [ (id, q) ]; installs = [] }

let combine a b = { send = a.send @ b.send; installs = a.installs @ b.installs }

type instance = {
  name : string;
  interest : string list option;
  on_update : R.Update.t -> outcome;
  on_batch : R.Update.t list -> outcome;
  on_answer : id:int -> R.Bag.t -> outcome;
  mv : unit -> R.Bag.t;
  on_quiesce : unit -> outcome;
  quiescent : unit -> bool;
  counters : unit -> Metrics.selfmaint option;
}

type creator = Config.t -> instance

(* Default batch handling: replay the updates through [on_update] in
   source order and keep only the final installed state — a batch is one
   atomic warehouse event, so intermediate view states are not
   observable. *)
let sequential_batch on_update updates =
  let outcome =
    List.fold_left (fun acc u -> combine acc (on_update u)) nothing updates
  in
  let installs =
    match List.rev outcome.installs with
    | [] -> []
    | last :: _ -> [ last ]
  in
  { outcome with installs }
