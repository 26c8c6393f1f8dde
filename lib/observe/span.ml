type kind =
  | Source_apply
  | Update_note
  | Query_send
  | Compensation
  | Answer_arrival
  | Collect_install
  | Quiescence

type t = {
  id : int;
  kind : kind;
  site : string;
  view : string;
  algo : string;
  ids : int list;
  t_open : int;
  t_close : int;
}

let kind_name = function
  | Source_apply -> "source_apply"
  | Update_note -> "update_note"
  | Query_send -> "query_send"
  | Compensation -> "compensation"
  | Answer_arrival -> "answer_arrival"
  | Collect_install -> "collect_install"
  | Quiescence -> "quiescence"

let all_kinds =
  [
    Source_apply; Update_note; Query_send; Compensation; Answer_arrival;
    Collect_install; Quiescence;
  ]

let duration s = s.t_close - s.t_open

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json s =
  Printf.sprintf
    "{\"type\":\"span\",\"id\":%d,\"kind\":\"%s\",\"site\":\"%s\",\
     \"view\":\"%s\",\"algo\":\"%s\",\"ids\":[%s],\"open\":%d,\"close\":%d}"
    s.id (kind_name s.kind) (escape s.site) (escape s.view) (escape s.algo)
    (String.concat "," (List.map string_of_int s.ids))
    s.t_open s.t_close
