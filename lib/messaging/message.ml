module R = Relational

type t =
  | Update_note of R.Update.t
  | Batch_note of R.Update.t list
  | Ddl_note of R.Update.ddl
  | Query of {
      id : int;
      query : R.Query.t;
    }
  | Answer of {
      id : int;
      answer : R.Bag.t;
      cost : Storage.Cost.t;
    }
  | Data of {
      seq : int;
      payloads : t list;
      ack : (int * (int * int) list) option;
    }
  | Ack of {
      cum : int;
      sacks : (int * int) list;
    }

let filler = Ack { cum = -1; sacks = [] }

let runs_size sacks = 8 + (16 * List.length sacks)

let ack_size = function
  | None -> 0
  | Some (_, sacks) -> runs_size sacks

let rec byte_size = function
  | Update_note u -> R.Update.byte_size u
  | Batch_note us ->
    8 + List.fold_left (fun acc u -> acc + R.Update.byte_size u) 0 us
  | Ddl_note d -> 8 + R.Update.ddl_byte_size d
  | Query { query; _ } -> 8 + R.Query.byte_size query
  | Answer { answer; _ } -> 8 + R.Bag.byte_size answer
  | Data { payloads; ack; _ } ->
    List.fold_left (fun acc p -> acc + byte_size p) 8 payloads + ack_size ack
  | Ack { sacks; _ } -> runs_size sacks

let kind_name = function
  | Update_note _ -> "update"
  | Batch_note _ -> "batch"
  | Ddl_note _ -> "ddl"
  | Query _ -> "query"
  | Answer _ -> "answer"
  | Data _ -> "data"
  | Ack _ -> "ack"

let rec pp ppf = function
  | Update_note u -> Format.fprintf ppf "Update %a" R.Update.pp u
  | Batch_note us ->
    Format.fprintf ppf "Batch [%s]"
      (String.concat "; " (List.map R.Update.to_string us))
  | Ddl_note d -> Format.fprintf ppf "Ddl %a" R.Update.pp_ddl d
  | Query { id; query } -> Format.fprintf ppf "Query Q%d = %a" id R.Query.pp query
  | Answer { id; answer; _ } ->
    Format.fprintf ppf "Answer A%d = %a" id R.Bag.pp answer
  | Data { seq; payloads; ack } ->
    Format.fprintf ppf "Data #%d (%a)%s" seq
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      payloads
      (match ack with None -> "" | Some (cum, _) -> Printf.sprintf " ack <=%d" cum)
  | Ack { cum; sacks } ->
    Format.fprintf ppf "Ack <=%d%s" cum
      (String.concat ""
         (List.map (fun (lo, hi) -> Printf.sprintf " +%d..%d" lo hi) sacks))
