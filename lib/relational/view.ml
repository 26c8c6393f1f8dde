type t = {
  name : string;
  sources : Schema.t list;
  cond : Predicate.t;
  proj : Attr.t list;
}

exception View_error of string

let error fmt = Format.kasprintf (fun s -> raise (View_error s)) fmt

(* All (relation, column) pairs of the cross product, in slot order. *)
let columns_of_sources sources =
  List.concat_map
    (fun (s : Schema.t) ->
      List.map (fun c -> (s.Schema.name, c)) (Schema.attr_names s))
    sources

let resolve_against columns (a : Attr.t) =
  let matching =
    List.filter (fun (rel, name) -> Attr.matches ~rel ~name a) columns
  in
  match matching with
  | [ (rel, name) ] -> Attr.qualified rel name
  | [] -> error "attribute %s not found among base relations" (Attr.to_string a)
  | _ -> error "attribute %s is ambiguous; qualify it" (Attr.to_string a)

let resolve_operand columns = function
  | Predicate.Col a -> Predicate.Col (resolve_against columns a)
  | Predicate.Const _ as o -> o

let rec resolve_pred columns = function
  | Predicate.True -> Predicate.True
  | Predicate.False -> Predicate.False
  | Predicate.Cmp (c, a, b) ->
    Predicate.Cmp (c, resolve_operand columns a, resolve_operand columns b)
  | Predicate.And (a, b) ->
    Predicate.And (resolve_pred columns a, resolve_pred columns b)
  | Predicate.Or (a, b) ->
    Predicate.Or (resolve_pred columns a, resolve_pred columns b)
  | Predicate.Not a -> Predicate.Not (resolve_pred columns a)

let make ?(name = "V") ~proj ~cond sources =
  if sources = [] then error "view %s must range over at least one relation" name;
  let rel_names = List.map (fun (s : Schema.t) -> s.Schema.name) sources in
  let sorted = List.sort_uniq String.compare rel_names in
  if List.length sorted <> List.length rel_names then
    error
      "view %s mentions a relation twice; the algorithms assume distinct \
       relations"
      name;
  if proj = [] then error "view %s must project at least one attribute" name;
  let columns = columns_of_sources sources in
  let proj = List.map (resolve_against columns) proj in
  let cond = resolve_pred columns cond in
  { name; sources; cond; proj }

(* Natural join: equate every pair of same-named columns across distinct
   relations, as in the paper's V = π(r1 ⋈ r2 ⋈ r3). *)
let natural_join_condition sources =
  let tagged =
    List.concat_map
      (fun (s : Schema.t) ->
        List.map (fun c -> (s.Schema.name, c)) (Schema.attr_names s))
      sources
  in
  let rec pairs acc = function
    | [] -> acc
    | (rel, col) :: rest ->
      let eqs =
        List.filter_map
          (fun (rel', col') ->
            if String.equal col col' && not (String.equal rel rel') then
              Some
                (Predicate.eq
                   (Predicate.Col (Attr.qualified rel col))
                   (Predicate.Col (Attr.qualified rel' col')))
            else None)
          rest
      in
      pairs (acc @ eqs) rest
  in
  Predicate.conj (pairs [] tagged)

let natural_join ?name ?(extra_cond = Predicate.True) ~proj sources =
  let cond =
    match extra_cond with
    | Predicate.True -> natural_join_condition sources
    | p -> Predicate.And (natural_join_condition sources, p)
  in
  make ?name ~proj ~cond sources

let relation_names v = List.map (fun (s : Schema.t) -> s.Schema.name) v.sources

let source_schema v rel =
  List.find_opt (fun (s : Schema.t) -> String.equal s.Schema.name rel) v.sources

let mentions v rel = Option.is_some (source_schema v rel)

let columns v = columns_of_sources v.sources

let proj_position v (a : Attr.t) =
  let rec loop i = function
    | [] -> None
    | p :: rest -> if Attr.equal p a then Some i else loop (i + 1) rest
  in
  loop 0 v.proj

(* Key coverage (Section 5.4): the output positions of [rel]'s declared
   key attributes, when the view projects all of them. *)
let key_positions v rel =
  match source_schema v rel with
  | None | Some { Schema.key = []; _ } -> None
  | Some s ->
    let positions =
      List.map (fun k -> proj_position v (Attr.qualified rel k)) s.Schema.key
    in
    if List.for_all Option.is_some positions then
      Some (List.map Option.get positions)
    else None

let covers_all_keys v =
  List.for_all
    (fun (s : Schema.t) -> Option.is_some (key_positions v s.Schema.name))
    v.sources

let output_attr_names v =
  (* Unqualified when unique among the projected names, qualified otherwise. *)
  let names = List.map (fun (a : Attr.t) -> a.Attr.name) v.proj in
  List.map
    (fun (a : Attr.t) ->
      let n = a.Attr.name in
      if List.length (List.filter (String.equal n) names) > 1 then
        Attr.to_string a
      else n)
    v.proj

let pp ppf v =
  Format.fprintf ppf "VIEW %s AS SELECT %s FROM %s WHERE %a" v.name
    (String.concat ", " (List.map Attr.to_string v.proj))
    (String.concat ", " (relation_names v))
    Predicate.pp v.cond

let to_string v = Format.asprintf "%a" pp v
