exception Parse_error of string

let error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Sym of string  (* ( ) , ; . = <> != < <= > >= *)
  | Eof

let keywords =
  [ "TABLE"; "VIEW"; "AS"; "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT";
    "INSERT"; "INTO"; "VALUES"; "DELETE"; "UPDATES"; "TRUE"; "FALSE"; "KEY";
    "REFERENCES"; "UNION"; "EXCEPT"; "ALTER"; "ADD"; "DROP"; "COLUMN";
    "DEFAULT" ]

let is_keyword s = List.mem (String.uppercase_ascii s) keywords

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let rec skip_line i = if i < n && src.[i] <> '\n' then skip_line (i + 1) else i in
  let rec go i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1)
      else if c = '-' && i + 1 < n && src.[i + 1] = '-' then go (skip_line i)
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do incr j done;
        push (Ident (String.sub src i (!j - i)));
        go !j
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit src.[i + 1]) then begin
        let j = ref (i + 1) in
        let seen_dot = ref false in
        while
          !j < n
          && (is_digit src.[!j] || (src.[!j] = '.' && not !seen_dot
                                    && !j + 1 < n && is_digit src.[!j + 1]))
        do
          if src.[!j] = '.' then seen_dot := true;
          incr j
        done;
        let text = String.sub src i (!j - i) in
        if !seen_dot then push (Float_lit (float_of_string text))
        else push (Int_lit (int_of_string text));
        go !j
      end
      else if c = '\'' || c = '"' then begin
        let quote = c in
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then error "unterminated string literal"
          else if src.[j] = quote then j + 1
          else begin
            Buffer.add_char buf src.[j];
            scan (j + 1)
          end
        in
        let j = scan (i + 1) in
        push (Str_lit (Buffer.contents buf));
        go j
      end
      else
        let two = if i + 1 < n then String.sub src i 2 else "" in
        match two with
        | "<>" | "!=" | "<=" | ">=" ->
          push (Sym two);
          go (i + 2)
        | _ -> (
          match c with
          | '(' | ')' | ',' | ';' | '.' | '=' | '<' | '>' | '*' ->
            push (Sym (String.make 1 c));
            go (i + 1)
          | _ -> error "unexpected character %C" c)
  in
  go 0;
  List.rev (Eof :: !tokens)

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = {
  mutable toks : token list;
}

let peek st = match st.toks with [] -> Eof | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let token_to_string = function
  | Ident s -> s
  | Int_lit n -> string_of_int n
  | Float_lit f -> string_of_float f
  | Str_lit s -> Printf.sprintf "%S" s
  | Sym s -> s
  | Eof -> "<eof>"

let expect_sym st s =
  match next st with
  | Sym x when String.equal x s -> ()
  | t -> error "expected %S but found %s" s (token_to_string t)

let expect_kw st kw =
  match next st with
  | Ident x when String.equal (String.uppercase_ascii x) kw -> ()
  | t -> error "expected keyword %s but found %s" kw (token_to_string t)

let peek_kw st kw =
  match peek st with
  | Ident x -> String.equal (String.uppercase_ascii x) kw
  | _ -> false

let accept_kw st kw =
  if peek_kw st kw then begin
    advance st;
    true
  end
  else false

let ident st =
  match next st with
  | Ident x when not (is_keyword x) -> x
  | t -> error "expected identifier but found %s" (token_to_string t)

(* ------------------------------------------------------------------ *)
(* Values, tuples, attributes                                          *)
(* ------------------------------------------------------------------ *)

let value st =
  match next st with
  | Int_lit n -> Value.Int n
  | Float_lit f -> Value.Float f
  | Str_lit s -> Value.Str s
  | Ident x when String.equal (String.uppercase_ascii x) "TRUE" -> Value.Bool true
  | Ident x when String.equal (String.uppercase_ascii x) "FALSE" -> Value.Bool false
  | t -> error "expected a value but found %s" (token_to_string t)

let comma_separated st item =
  let rec loop acc =
    let x = item st in
    if peek st = Sym "," then begin
      advance st;
      loop (x :: acc)
    end
    else List.rev (x :: acc)
  in
  loop []

let tuple st =
  expect_sym st "(";
  let vs = comma_separated st value in
  expect_sym st ")";
  Tuple.of_list vs

let attr st =
  let a = ident st in
  if peek st = Sym "." then begin
    advance st;
    let b = ident st in
    Attr.qualified a b
  end
  else Attr.unqualified a

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let cmp_of_sym = function
  | "=" -> Some Predicate.Eq
  | "<>" | "!=" -> Some Predicate.Neq
  | "<" -> Some Predicate.Lt
  | "<=" -> Some Predicate.Le
  | ">" -> Some Predicate.Gt
  | ">=" -> Some Predicate.Ge
  | _ -> None

let operand st =
  match peek st with
  | Int_lit _ | Float_lit _ | Str_lit _ -> Predicate.Const (value st)
  | Ident x when is_keyword x -> Predicate.Const (value st)
  | Ident _ -> Predicate.Col (attr st)
  | t -> error "expected an operand but found %s" (token_to_string t)

let rec predicate st = or_expr st

and or_expr st =
  let left = and_expr st in
  if accept_kw st "OR" then Predicate.Or (left, or_expr st) else left

and and_expr st =
  let left = not_expr st in
  if accept_kw st "AND" then Predicate.And (left, and_expr st) else left

and not_expr st =
  if accept_kw st "NOT" then Predicate.Not (not_expr st) else atom st

and atom st =
  match peek st with
  | Sym "(" ->
    advance st;
    let p = predicate st in
    expect_sym st ")";
    p
  | Ident x when String.equal (String.uppercase_ascii x) "TRUE" ->
    advance st;
    Predicate.True
  | Ident x when String.equal (String.uppercase_ascii x) "FALSE" ->
    advance st;
    Predicate.False
  | _ ->
    let left = operand st in
    let sym = match next st with
      | Sym s -> s
      | t -> error "expected a comparison but found %s" (token_to_string t)
    in
    let c =
      match cmp_of_sym sym with
      | Some c -> c
      | None -> error "unknown comparison operator %S" sym
    in
    Predicate.Cmp (c, left, operand st)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let column_def st =
  let name = ident st in
  let ty_name =
    match next st with
    | Ident t -> t
    | t -> error "expected a column type but found %s" (token_to_string t)
  in
  let ty =
    match Value.ty_of_string ty_name with
    | Some t -> t
    | None -> error "unknown column type %s" ty_name
  in
  let is_key = accept_kw st "KEY" in
  (* Column-level foreign key, mirroring the column-level KEY marker:
     [cid INT REFERENCES customers(cid)]. *)
  let fk =
    if accept_kw st "REFERENCES" then begin
      let target = ident st in
      expect_sym st "(";
      let ref_cols = comma_separated st ident in
      expect_sym st ")";
      Some { Schema.fk_cols = [ name ]; fk_ref = target; fk_ref_cols = ref_cols }
    end
    else None
  in
  ({ Schema.col_name = name; col_type = ty }, is_key, fk)

let table_def st =
  let name = ident st in
  expect_sym st "(";
  let cols = comma_separated st column_def in
  expect_sym st ")";
  expect_sym st ";";
  let key =
    List.filter_map (fun (c, k, _) -> if k then Some c.Schema.col_name else None) cols
  in
  let fks = List.filter_map (fun (_, _, fk) -> fk) cols in
  List.iter
    (fun fk ->
      if List.length fk.Schema.fk_ref_cols <> 1 then
        error "table %s: REFERENCES %s(...) must name exactly one column"
          name fk.Schema.fk_ref)
    fks;
  Schema.make ~key ~fks name (List.map (fun (c, _, _) -> c) cols)

(* One SELECT block of a view definition (the part after the keyword). *)
let select_block ~view_name ~part tables st =
  let proj = comma_separated st attr in
  expect_kw st "FROM";
  let rels = comma_separated st ident in
  let cond = if accept_kw st "WHERE" then predicate st else Predicate.True in
  let sources =
    List.map
      (fun r ->
        match
          List.find_opt (fun (s : Schema.t) -> String.equal s.Schema.name r) tables
        with
        | Some s -> s
        | None -> error "view %s references undefined table %s" view_name r)
      rels
  in
  let name =
    if part = 0 then view_name else Printf.sprintf "%s#%d" view_name part
  in
  View.make ~name ~proj ~cond sources

(* VIEW v AS SELECT ... [UNION SELECT ... | EXCEPT SELECT ...]* ; *)
let view_def tables st =
  let name = ident st in
  expect_kw st "AS";
  expect_kw st "SELECT";
  let first = select_block ~view_name:name ~part:0 tables st in
  let rec more part acc =
    if accept_kw st "UNION" then begin
      expect_kw st "SELECT";
      let v = select_block ~view_name:name ~part tables st in
      more (part + 1) ((Sign.Pos, v) :: acc)
    end
    else if accept_kw st "EXCEPT" then begin
      expect_kw st "SELECT";
      let v = select_block ~view_name:name ~part tables st in
      more (part + 1) ((Sign.Neg, v) :: acc)
    end
    else List.rev acc
  in
  let rest = more 1 [] in
  expect_sym st ";";
  try Viewdef.make ~name ((Sign.Pos, first) :: rest)
  with Viewdef.Viewdef_error m -> error "%s" m

(* ALTER TABLE r ADD COLUMN c TYPE DEFAULT v
   | ALTER TABLE r DROP COLUMN c
   | ALTER TABLE r KEY (c1, …)
   | ALTER TABLE r DROP KEY *)
let alter_def st =
  expect_kw st "TABLE";
  let rel = ident st in
  let d =
    if accept_kw st "ADD" then begin
      expect_kw st "COLUMN";
      let col = ident st in
      let ty_name =
        match next st with
        | Ident t -> t
        | t -> error "expected a column type but found %s" (token_to_string t)
      in
      let ty =
        match Value.ty_of_string ty_name with
        | Some t -> t
        | None -> error "unknown column type %s" ty_name
      in
      expect_kw st "DEFAULT";
      let default = value st in
      if Value.type_of default <> ty then
        error "ALTER TABLE %s ADD COLUMN %s: default %s is not of type %s" rel
          col (Value.to_string default) (Value.ty_to_string ty);
      Update.Add_column { rel; col; ty; default }
    end
    else if accept_kw st "DROP" then begin
      if accept_kw st "KEY" then Update.Key_change { rel; key = [] }
      else begin
        expect_kw st "COLUMN";
        Update.Drop_column { rel; col = ident st }
      end
    end
    else if accept_kw st "KEY" then begin
      expect_sym st "(";
      let key = comma_separated st ident in
      expect_sym st ")";
      Update.Key_change { rel; key }
    end
    else
      error "ALTER TABLE %s: expected ADD COLUMN, DROP COLUMN, DROP KEY or \
             KEY (…)" rel
  in
  expect_sym st ";";
  d

let parse_script src =
  let st = { toks = tokenize src } in
  (* Accumulators grow newest-first and are reversed once at the end:
     the former [xs @ [x]] appends made parsing quadratic in script
     length. [nup] counts accumulated updates so each ALTER records its
     stream position without re-measuring the list. *)
  let rec loop tables views initial updates ddls nup in_updates =
    match peek st with
    | Eof -> (tables, views, initial, updates, ddls)
    | Ident kw -> (
      match String.uppercase_ascii kw with
      | "TABLE" ->
        advance st;
        if in_updates then error "TABLE definitions must precede UPDATES";
        let s = table_def st in
        loop (s :: tables) views initial updates ddls nup in_updates
      | "VIEW" ->
        advance st;
        if in_updates then error "VIEW definitions must precede UPDATES";
        (* [view_def] resolves relations against the tables in definition
           order (the first declaration of a name wins), so hand it the
           forward order. *)
        let v = view_def (List.rev tables) st in
        if List.exists (fun (v' : Viewdef.t) -> String.equal v'.Viewdef.name v.Viewdef.name) views
        then error "view %s is defined twice" v.Viewdef.name;
        loop tables (v :: views) initial updates ddls nup in_updates
      | "INSERT" ->
        advance st;
        expect_kw st "INTO";
        let rel = ident st in
        expect_kw st "VALUES";
        let t = tuple st in
        expect_sym st ";";
        let u = Update.insert rel t in
        if in_updates then
          loop tables views initial (u :: updates) ddls (nup + 1) in_updates
        else loop tables views (u :: initial) updates ddls nup in_updates
      | "DELETE" ->
        advance st;
        expect_kw st "FROM";
        let rel = ident st in
        expect_kw st "VALUES";
        let t = tuple st in
        expect_sym st ";";
        let u = Update.delete rel t in
        if in_updates then
          loop tables views initial (u :: updates) ddls (nup + 1) in_updates
        else error "DELETE statements belong in the UPDATES section"
      | "ALTER" ->
        advance st;
        let d = alter_def st in
        if not in_updates then
          error "ALTER TABLE statements belong in the UPDATES section";
        loop tables views initial updates ((nup, d) :: ddls) nup in_updates
      | "UPDATES" ->
        advance st;
        expect_sym st ";";
        if in_updates then error "duplicate UPDATES marker";
        loop tables views initial updates ddls nup true
      | other -> error "unexpected statement %s" other)
    | t -> error "unexpected token %s" (token_to_string t)
  in
  let tables, views, initial, updates, ddls = loop [] [] [] [] [] 0 false in
  let number us = List.mapi (fun i u -> Update.with_seq (i + 1) u) us in
  {
    Script.tables = List.rev tables;
    views = List.rev views;
    initial = List.rev initial;
    updates = number (List.rev updates);
    ddls = List.rev ddls;
  }

(* A standalone SELECT (no VIEW wrapper), for ad-hoc queries: the result
   is an anonymous view evaluated once. *)
let parse_select ~tables src =
  let st = { toks = tokenize src } in
  expect_kw st "SELECT";
  let proj = comma_separated st attr in
  expect_kw st "FROM";
  let rels = comma_separated st ident in
  let cond = if accept_kw st "WHERE" then predicate st else Predicate.True in
  (match peek st with
   | Sym ";" -> advance st
   | _ -> ());
  (match peek st with
   | Eof -> ()
   | t -> error "trailing input after SELECT: %s" (token_to_string t));
  let sources =
    List.map
      (fun r ->
        match
          List.find_opt (fun (s : Schema.t) -> String.equal s.Schema.name r) tables
        with
        | Some s -> s
        | None -> error "SELECT references undefined table %s" r)
      rels
  in
  View.make ~name:"__select" ~proj ~cond sources

let parse_view ~tables src =
  let st = { toks = tokenize src } in
  expect_kw st "VIEW";
  let v = view_def tables st in
  (match peek st with
   | Eof -> ()
   | t -> error "trailing input after view definition: %s" (token_to_string t));
  v

let parse_predicate src =
  let st = { toks = tokenize src } in
  let p = predicate st in
  (match peek st with
   | Eof -> ()
   | t -> error "trailing input after predicate: %s" (token_to_string t));
  p

let parse_tuple src =
  let st = { toks = tokenize src } in
  let t = tuple st in
  (match peek st with
   | Eof -> ()
   | tok -> error "trailing input after tuple: %s" (token_to_string tok));
  t
