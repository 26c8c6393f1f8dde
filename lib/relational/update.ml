type kind =
  | Insert
  | Delete

type t = {
  seq : int;
  kind : kind;
  rel : string;
  tuple : Tuple.t;
}

let insert ?(seq = 0) rel tuple = { seq; kind = Insert; rel; tuple }
let delete ?(seq = 0) rel tuple = { seq; kind = Delete; rel; tuple }

let with_seq seq u = { u with seq }

let sign u =
  match u.kind with
  | Insert -> Sign.Pos
  | Delete -> Sign.Neg

let byte_size u = 8 + String.length u.rel + Tuple.byte_size u.tuple

let to_string u =
  Printf.sprintf "%s(%s, %s)"
    (match u.kind with Insert -> "insert" | Delete -> "delete")
    u.rel (Tuple.to_string u.tuple)

let pp ppf u = Format.pp_print_string ppf (to_string u)

(* --- schema changes (DDL) ---------------------------------------------- *)

type ddl =
  | Add_column of {
      rel : string;
      col : string;
      ty : Value.ty;
      default : Value.t;
    }
  | Drop_column of {
      rel : string;
      col : string;
    }
  | Key_change of {
      rel : string;
      key : string list;
    }

let ddl_rel = function
  | Add_column { rel; _ } | Drop_column { rel; _ } | Key_change { rel; _ } ->
    rel

let ddl_byte_size d =
  8
  + String.length (ddl_rel d)
  + (match d with
    | Add_column { col; default; _ } ->
      String.length col + Value.byte_size default
    | Drop_column { col; _ } -> String.length col
    | Key_change { key; _ } ->
      List.fold_left (fun acc k -> acc + String.length k) 0 key)

let ddl_to_string = function
  | Add_column { rel; col; ty; default } ->
    Printf.sprintf "alter(%s, add %s %s default %s)" rel col
      (Value.ty_to_string ty) (Value.to_string default)
  | Drop_column { rel; col } -> Printf.sprintf "alter(%s, drop %s)" rel col
  | Key_change { rel; key = [] } -> Printf.sprintf "alter(%s, drop key)" rel
  | Key_change { rel; key } ->
    Printf.sprintf "alter(%s, key (%s))" rel (String.concat ", " key)

let pp_ddl ppf d = Format.pp_print_string ppf (ddl_to_string d)
