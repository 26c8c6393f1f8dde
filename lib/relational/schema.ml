type column = {
  col_name : string;
  col_type : Value.ty;
}

type fk = {
  fk_cols : string list;
  fk_ref : string;
  fk_ref_cols : string list;
}

type t = {
  name : string;
  columns : column list;
  key : string list;
  fks : fk list;
}

exception Schema_error of string

let error fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

let make ?(key = []) ?(fks = []) name columns =
  if name = "" then error "relation name cannot be empty";
  if columns = [] then error "relation %s must have at least one column" name;
  let names = List.map (fun c -> c.col_name) columns in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    error "relation %s has duplicate column names" name;
  List.iter
    (fun k ->
      if not (List.mem k names) then
        error "key attribute %s is not a column of %s" k name)
    key;
  List.iter
    (fun fk ->
      if fk.fk_ref = "" then
        error "foreign key of %s references an unnamed relation" name;
      if fk.fk_cols = [] then
        error "foreign key of %s has no source columns" name;
      if List.length fk.fk_cols <> List.length fk.fk_ref_cols then
        error "foreign key %s -> %s pairs %d columns with %d" name fk.fk_ref
          (List.length fk.fk_cols)
          (List.length fk.fk_ref_cols);
      let csorted = List.sort_uniq String.compare fk.fk_cols in
      if List.length csorted <> List.length fk.fk_cols then
        error "foreign key of %s lists a source column twice" name;
      let rsorted = List.sort_uniq String.compare fk.fk_ref_cols in
      if List.length rsorted <> List.length fk.fk_ref_cols then
        error "foreign key %s -> %s lists a target column twice" name fk.fk_ref;
      List.iter
        (fun c ->
          if not (List.mem c names) then
            error "foreign-key attribute %s is not a column of %s" c name)
        fk.fk_cols)
    fks;
  { name; columns; key; fks }

let of_names ?key ?fks name col_names =
  make ?key ?fks name
    (List.map (fun n -> { col_name = n; col_type = Value.Tint }) col_names)

let arity s = List.length s.columns

let attr_names s = List.map (fun c -> c.col_name) s.columns

let column_index s n =
  let rec loop i = function
    | [] -> None
    | c :: rest -> if String.equal c.col_name n then Some i else loop (i + 1) rest
  in
  loop 0 s.columns

let has_column s n = Option.is_some (column_index s n)

let key_positions s =
  List.map
    (fun k ->
      match column_index s k with
      | Some i -> i
      | None -> error "key attribute %s is not a column of %s" k s.name)
    s.key

let check_tuple s (t : Tuple.t) =
  if Tuple.arity t <> arity s then
    error "tuple %s has arity %d but relation %s has arity %d"
      (Tuple.to_string t) (Tuple.arity t) s.name (arity s)

let fk_equal a b =
  List.equal String.equal a.fk_cols b.fk_cols
  && String.equal a.fk_ref b.fk_ref
  && List.equal String.equal a.fk_ref_cols b.fk_ref_cols

(* Schemas flow by reference from the database into every term, so the
   physical test settles the common case. *)
let equal a b =
  a == b
  || String.equal a.name b.name
  && List.length a.columns = List.length b.columns
  && List.for_all2
       (fun x y -> String.equal x.col_name y.col_name && x.col_type = y.col_type)
       a.columns b.columns
  && List.equal String.equal a.key b.key
  && List.equal fk_equal a.fks b.fks

let pp_sep_comma ppf () = Format.fprintf ppf ", "

let pp_fk ppf fk =
  Format.fprintf ppf "FK (%a) REFERENCES %s(%a)"
    (Format.pp_print_list ~pp_sep:pp_sep_comma Format.pp_print_string)
    fk.fk_cols fk.fk_ref
    (Format.pp_print_list ~pp_sep:pp_sep_comma Format.pp_print_string)
    fk.fk_ref_cols

let pp ppf s =
  let pp_col ppf c =
    Format.fprintf ppf "%s %s%s" c.col_name
      (Value.ty_to_string c.col_type)
      (if List.mem c.col_name s.key then " KEY" else "")
  in
  (* FKs print only when declared so FK-less schemas keep their historical
     rendering (golden traces compare this output byte for byte). *)
  Format.fprintf ppf "%s(%a%s%a)" s.name
    (Format.pp_print_list ~pp_sep:pp_sep_comma pp_col)
    s.columns
    (if s.fks = [] then "" else ", ")
    (Format.pp_print_list ~pp_sep:pp_sep_comma pp_fk)
    s.fks

let to_string s = Format.asprintf "%a" pp s
