type t = {
  name : string;
  parts : (Sign.t * View.t) list;
}

exception Viewdef_error of string

let error fmt = Format.kasprintf (fun s -> raise (Viewdef_error s)) fmt

let make ~name parts =
  if parts = [] then error "compound view %s needs at least one part" name;
  let arities =
    List.sort_uniq Int.compare
      (List.map (fun (_, (v : View.t)) -> List.length v.View.proj) parts)
  in
  (match arities with
   | [ _ ] -> ()
   | _ -> error "compound view %s mixes output arities" name);
  { name; parts }

let simple (v : View.t) = { name = v.View.name; parts = [ (Sign.Pos, v) ] }

let as_simple t =
  match t.parts with
  | [ (Sign.Pos, v) ] -> Some v
  | _ -> None

let is_simple t = Option.is_some (as_simple t)

let scale sign parts =
  List.map (fun (s, v) -> (Sign.mult sign s, v)) parts

let union ?name a b =
  let name = Option.value name ~default:(a.name ^ "+" ^ b.name) in
  make ~name (a.parts @ b.parts)

let diff ?name a b =
  let name = Option.value name ~default:(a.name ^ "-" ^ b.name) in
  make ~name (a.parts @ scale Sign.Neg b.parts)

let signed_query sign v =
  let q = Query.of_view v in
  match sign with Sign.Pos -> q | Sign.Neg -> Query.negate q

let full_query t =
  List.concat_map (fun (sign, v) -> signed_query sign v) t.parts

let delta t u =
  List.concat_map
    (fun (sign, v) ->
      let q = Query.view_delta v u in
      match sign with Sign.Pos -> q | Sign.Neg -> Query.negate q)
    t.parts

let mentions t rel = List.exists (fun (_, v) -> View.mentions v rel) t.parts

let relation_names t =
  List.sort_uniq String.compare
    (List.concat_map (fun (_, v) -> View.relation_names v) t.parts)

let eval db t =
  List.fold_left
    (fun acc (sign, v) ->
      Bag.plus acc (Bag.apply_sign sign (Eval.view db v)))
    Bag.empty t.parts

let output_attr_names t =
  match t.parts with
  | [] -> []
  | (_, v) :: _ -> View.output_attr_names v

let pp ppf t =
  match as_simple t with
  | Some v -> View.pp ppf v
  | None ->
    Format.fprintf ppf "VIEW %s AS" t.name;
    List.iteri
      (fun i (sign, (v : View.t)) ->
        let connective =
          if i = 0 then
            match sign with Sign.Pos -> "" | Sign.Neg -> " MINUS"
          else match sign with Sign.Pos -> " UNION" | Sign.Neg -> " EXCEPT"
        in
        Format.fprintf ppf "%s SELECT %s FROM %s WHERE %a" connective
          (String.concat ", " (List.map Attr.to_string v.View.proj))
          (String.concat ", " (View.relation_names v))
          Predicate.pp v.View.cond)
      t.parts

let to_string t = Format.asprintf "%a" pp t
