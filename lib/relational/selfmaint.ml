type self_reason =
  | Literal
  | Key_delete
  | Fk_join

type verdict =
  | Self of self_reason
  | Aux of string list
  | Remote of string

type aux = {
  aux_rel : string;
  aux_base : Schema.t;
  aux_schema : Schema.t;
  aux_keep : int list;
  aux_cond : Predicate.t;
  aux_maintained : bool;
}

type partner_source =
  | P_aux
  | P_fk of int option list

type part_plan = {
  pp_viewdef : Viewdef.t;
  pp_program : Delta_program.t;
  pp_partners : (string * partner_source) list;
}

type class_plan =
  | Use_key_delete
  | Use_local of part_plan list
  | Use_fallback of string

type class_report = {
  cls_rel : string;
  cls_kind : Update.kind;
  cls_verdict : verdict;
  cls_plan : class_plan;
}

type t = {
  view : Viewdef.t;
  classes : class_report list;
  auxes : aux list;
  fully_local : bool;
}

(* --- per-partner reductions ------------------------------------------- *)

let attr_names_of rel (v : View.t) =
  let of_attr (a : Attr.t) acc =
    match a.Attr.rel with
    | Some r when String.equal r rel -> a.Attr.name :: acc
    | _ -> acc
  in
  let acc = List.fold_right of_attr v.View.proj [] in
  List.fold_right of_attr (Predicate.attrs v.View.cond) acc

(* Conjuncts of a part's condition referencing only [rel] — candidates for
   pushing down into the auxiliary view. *)
let own_conjuncts rel (v : View.t) =
  List.filter
    (fun c ->
      let attrs = Predicate.attrs c in
      attrs <> []
      && List.for_all
           (fun (a : Attr.t) ->
             match a.Attr.rel with
             | Some r -> String.equal r rel
             | None -> false)
           attrs)
    (Predicate.conjuncts v.View.cond)

(* Total lookup of an analyzer-derived column position. Positions come
   from [Schema.column_index] over the same schema, so they are in range
   by construction; a violation means the analyzer and the schema went
   out of sync and must be reported as the invariant breach it is, not a
   bare [Failure "nth"]. *)
let column_at (s : Schema.t) i =
  match List.nth_opt s.Schema.columns i with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf
         "Selfmaint: column position %d out of range for %s (arity %d)" i
         s.Schema.name (Schema.arity s))

(* The auxiliary view of [rel]: keep every column any part references,
   select by the conjuncts every mentioning part agrees on. One canonical
   reduction per relation keeps the local rewrites of all update classes
   over the same schemas. *)
let aux_of_relation (vd : Viewdef.t) rel =
  let base =
    let rec find = function
      | [] -> invalid_arg "Selfmaint.aux_of_relation: unmentioned relation"
      | (_, v) :: rest -> (
        match View.source_schema v rel with
        | Some s -> s
        | None -> find rest)
    in
    find vd.Viewdef.parts
  in
  let mentioning =
    List.filter_map
      (fun (_, v) -> if View.mentions v rel then Some v else None)
      vd.Viewdef.parts
  in
  let referenced =
    List.sort_uniq String.compare
      (List.concat_map (fun v -> attr_names_of rel v) mentioning)
  in
  let keep_names =
    match referenced with
    | [] ->
      (* pure cross-product factor: one column tracks the cardinality *)
      [ (List.hd base.Schema.columns).Schema.col_name ]
    | _ -> referenced
  in
  let keep =
    List.sort compare
      (List.map
         (fun n ->
           match Schema.column_index base n with
           | Some i -> i
           | None -> invalid_arg "Selfmaint.aux_of_relation: bad column")
         keep_names)
  in
  let cond =
    match mentioning with
    | [] -> Predicate.True
    | v0 :: rest ->
      let common =
        List.fold_left
          (fun acc v ->
            let own = own_conjuncts rel v in
            List.filter (fun c -> List.exists (Predicate.equal c) own) acc)
          (own_conjuncts rel v0) rest
      in
      Predicate.conj common
  in
  let columns = List.map (column_at base) keep in
  {
    aux_rel = rel;
    aux_base = base;
    aux_schema = Schema.make rel columns;
    aux_keep = keep;
    aux_cond = cond;
    aux_maintained = false;
  }

let proper_reduction a =
  List.length a.aux_keep < Schema.arity a.aux_base
  ||
  match a.aux_cond with
  | Predicate.True -> false
  | _ -> true

(* --- foreign-key derivation (insert classes) --------------------------- *)

(* Equality conjuncts of [v.cond] pairing a column of [r] with a column of
   [s], as [(r_col, s_col)]. *)
let equated_pairs (v : View.t) r s =
  List.filter_map
    (fun c ->
      match c with
      | Predicate.Cmp (Predicate.Eq, Predicate.Col a, Predicate.Col b) -> (
        match (a.Attr.rel, b.Attr.rel) with
        | Some ra, Some rb when String.equal ra r && String.equal rb s ->
          Some (a.Attr.name, b.Attr.name)
        | Some ra, Some rb when String.equal ra s && String.equal rb r ->
          Some (b.Attr.name, a.Attr.name)
        | _ -> None)
      | _ -> None)
    (Predicate.conjuncts v.View.cond)

(* An insert into [r] determines its partner row in [s] when some declared
   FK r→s (1) has all its column pairs among the part's equality conjuncts,
   (2) its target columns cover a declared key of [s] — referential
   integrity then yields exactly one partner — and (3) they also cover
   every [s]-column the part reads, so all read values equal the inserted
   tuple's. Returns the singleton-construction map over [aux]'s kept
   columns. *)
let fk_derivation (v : View.t) r s (aux : aux) =
  match (View.source_schema v r, View.source_schema v s) with
  | Some rs, Some ss ->
    let pairs_of (fk : Schema.fk) =
      List.combine fk.Schema.fk_cols fk.Schema.fk_ref_cols
    in
    let equated = equated_pairs v r s in
    let refcols = List.sort_uniq String.compare (attr_names_of s v) in
    let usable (fk : Schema.fk) =
      String.equal fk.Schema.fk_ref s
      && List.for_all
           (fun (c, d) ->
             List.exists
               (fun (c', d') -> String.equal c c' && String.equal d d')
               equated)
           (pairs_of fk)
      && ss.Schema.key <> []
      && List.for_all
           (fun k -> List.mem k fk.Schema.fk_ref_cols)
           ss.Schema.key
      && List.for_all (fun d -> List.mem d fk.Schema.fk_ref_cols) refcols
    in
    (match List.find_opt usable rs.Schema.fks with
    | None -> None
    | Some fk ->
      let pairs = pairs_of fk in
      let fill pos =
        let d = (column_at ss pos).Schema.col_name in
        match List.find_opt (fun (_, d') -> String.equal d d') pairs with
        | None -> None
        | Some (c, _) -> Schema.column_index rs c
      in
      Some (List.map fill aux.aux_keep))
  | _ -> None

(* --- per-class planning ------------------------------------------------ *)

let kind_tag = function
  | Update.Insert -> '+'
  | Update.Delete -> '-'

let local_rewrite (vd : Viewdef.t) rel kind idx (sign, (v : View.t)) partners =
  let sources =
    List.map
      (fun (s : Schema.t) ->
        if String.equal s.Schema.name rel then s
        else
          match
            List.find_opt
              (fun (a : aux) -> String.equal a.aux_rel s.Schema.name)
              partners
          with
          | Some a -> a.aux_schema
          | None -> s)
      v.View.sources
  in
  let name =
    Printf.sprintf "%s~sm%c%s:%d" vd.Viewdef.name (kind_tag kind) rel idx
  in
  let view =
    View.make ~name:(v.View.name) ~proj:v.View.proj ~cond:v.View.cond sources
  in
  Viewdef.make ~name [ (sign, view) ]

(* A class's verdict and, when it is maintained locally, each part's
   rewrite with its partner sources — unstaged, so that {!verdicts} stages
   nothing; {!analyze} stages them. *)
let plan_class (vd : Viewdef.t) aux_by_rel rel kind =
  let parts =
    List.filteri (fun _ (_, v) -> View.mentions v rel) vd.Viewdef.parts
  in
  let indexed = List.mapi (fun i p -> (i, p)) parts in
  let literal =
    List.for_all (fun (_, (_, v)) -> View.relation_names v = [ rel ]) indexed
  in
  if literal then
    ( Self Literal,
      List.map
        (fun (i, part) -> (local_rewrite vd rel kind i part [], []))
        indexed )
  else if
    kind = Update.Delete
    && (match Viewdef.as_simple vd with
       | Some v -> Option.is_some (View.key_positions v rel)
       | None -> false)
  then (Self Key_delete, [])
  else
    let exception Blocked of string in
    try
      let plans =
        List.map
          (fun (i, (sign, v)) ->
            let partners =
              List.filter
                (fun n -> not (String.equal n rel))
                (View.relation_names v)
            in
            let sources =
              List.map
                (fun s ->
                  let a = List.assoc s aux_by_rel in
                  match
                    if kind = Update.Insert then fk_derivation v rel s a
                    else None
                  with
                  | Some fills -> (s, P_fk fills)
                  | None ->
                    if proper_reduction a then (s, P_aux)
                    else
                      raise
                        (Blocked
                           (Printf.sprintf
                              "auxiliary view for %s would copy it whole \
                               (that is SC)"
                              s)))
                partners
            in
            let aux_schemas =
              List.map (fun (s, _) -> List.assoc s aux_by_rel) sources
            in
            (local_rewrite vd rel kind i (sign, v) aux_schemas, sources))
          indexed
      in
      let aux_rels =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (_, sources) ->
               List.filter_map
                 (fun (s, src) -> if src = P_aux then Some s else None)
                 sources)
             plans)
      in
      let verdict =
        if aux_rels = [] then Self Fk_join else Aux aux_rels
      in
      (verdict, plans)
    with Blocked reason -> (Remote reason, [])

(* Every class of the view, relation-major, insert before delete, with
   its verdict and unstaged parts. *)
let plan_classes (vd : Viewdef.t) =
  let rels = Viewdef.relation_names vd in
  let partner_rels =
    List.filter
      (fun r ->
        List.exists
          (fun (_, v) ->
            View.mentions v r && List.length (View.relation_names v) > 1)
          vd.Viewdef.parts)
      rels
  in
  let aux_by_rel =
    List.map (fun r -> (r, aux_of_relation vd r)) partner_rels
  in
  ( aux_by_rel,
    List.concat_map
      (fun rel ->
        List.map
          (fun kind -> (rel, kind, plan_class vd aux_by_rel rel kind))
          [ Update.Insert; Update.Delete ])
      rels )

let verdicts vd = List.map (fun (_, _, (v, _)) -> v) (snd (plan_classes vd))

(* Each locally maintained part is staged here, once per analysis:
   [delta] runs its program on every update of the class. *)
let analyze (vd : Viewdef.t) =
  let aux_by_rel, planned = plan_classes vd in
  let classes =
    List.map
      (fun (rel, kind, (verdict, parts)) ->
        let plan =
          match verdict with
          | Self Key_delete -> Use_key_delete
          | Remote why -> Use_fallback why
          | Self (Literal | Fk_join) | Aux _ ->
            Use_local
              (List.map
                 (fun (viewdef, partners) ->
                   {
                     pp_viewdef = viewdef;
                     pp_program = Delta_program.stage_class viewdef ~rel ~kind;
                     pp_partners = partners;
                   })
                 parts)
        in
        { cls_rel = rel; cls_kind = kind; cls_verdict = verdict;
          cls_plan = plan })
      planned
  in
  let maintained_rel s =
    List.exists
      (fun c ->
        match c.cls_plan with
        | Use_local plans ->
          List.exists
            (fun pp ->
              List.exists
                (fun (s', src) -> src = P_aux && String.equal s' s)
                pp.pp_partners)
            plans
        | _ -> false)
      classes
  in
  let auxes =
    List.map
      (fun (s, a) -> { a with aux_maintained = maintained_rel s })
      aux_by_rel
  in
  let fully_local =
    List.for_all
      (fun c ->
        match c.cls_plan with
        | Use_fallback _ -> false
        | _ -> true)
      classes
  in
  { view = vd; classes; auxes; fully_local }

let find_class t ~rel ~kind =
  List.find_opt
    (fun c -> String.equal c.cls_rel rel && c.cls_kind = kind)
    t.classes

let maintained t = List.filter (fun a -> a.aux_maintained) t.auxes

(* --- the auxiliary database -------------------------------------------- *)

let aux_project a tuple =
  let lookup (at : Attr.t) =
    match Schema.column_index a.aux_base at.Attr.name with
    | Some i -> Tuple.get tuple i
    | None -> invalid_arg "Selfmaint.aux_project: unresolved attribute"
  in
  if Predicate.eval lookup a.aux_cond then
    Some (Tuple.of_list (List.map (Tuple.get tuple) a.aux_keep))
  else None

let seed_aux_db t db =
  List.fold_left
    (fun acc a ->
      let contents =
        if a.aux_maintained then
          Bag.fold
            (fun tup n bag ->
              match aux_project a tup with
              | None -> bag
              | Some tp -> Bag.add ~count:n tp bag)
            (Db.contents db a.aux_rel) Bag.empty
        else Bag.empty
      in
      Db.add_relation ~contents acc a.aux_schema)
    Db.empty t.auxes

let apply_aux t db (u : Update.t) =
  match
    List.find_opt
      (fun a -> a.aux_maintained && String.equal a.aux_rel u.Update.rel)
      t.auxes
  with
  | None -> db
  | Some a -> (
    match aux_project a u.Update.tuple with
    | None -> db
    | Some tp ->
      let count = match u.Update.kind with Update.Insert -> 1 | Update.Delete -> -1 in
      Db.add_tuple ~count db u.Update.rel tp)

let delta t ~aux_db (u : Update.t) =
  match find_class t ~rel:u.Update.rel ~kind:u.Update.kind with
  | None -> Some Bag.empty
  | Some { cls_plan = Use_key_delete; _ } | Some { cls_plan = Use_fallback _; _ }
    ->
    None
  | Some { cls_plan = Use_local plans; _ } ->
    let eval_part acc pp =
      let db =
        List.fold_left
          (fun db (s, src) ->
            match src with
            | P_aux -> db
            | P_fk fills ->
              let vals =
                List.map
                  (function
                    | Some i -> Tuple.get u.Update.tuple i
                    | None -> Value.Int 0)
                  fills
              in
              Db.set_contents db s (Bag.singleton (Tuple.of_list vals)))
          aux_db pp.pp_partners
      in
      Delta_program.apply ~into:acc pp.pp_program db u.Update.tuple
    in
    Some (List.fold_left eval_part Bag.empty plans)

let storage t aux_db =
  List.fold_left
    (fun (tuples, bytes) a ->
      let b = Db.contents aux_db a.aux_rel in
      (tuples + Bag.net_cardinality b, bytes + Bag.byte_size b))
    (0, 0) (maintained t)

(* --- reporting ---------------------------------------------------------- *)

let verdict_to_string = function
  | Self Literal -> "self (literal)"
  | Self Key_delete -> "self (key-delete)"
  | Self Fk_join -> "self (fk-join)"
  | Aux rels -> Printf.sprintf "local via aux(%s)" (String.concat ", " rels)
  | Remote reason -> Printf.sprintf "remote: %s" reason

let pp_report ppf t =
  let headline =
    if t.fully_local then
      match maintained t with
      | [] -> "self-maintainable"
      | auxes ->
        Printf.sprintf "self-maintainable with %d auxiliary view%s"
          (List.length auxes)
          (if List.length auxes = 1 then "" else "s")
    else "needs source queries"
  in
  Format.fprintf ppf "view %s: %s@." t.view.Viewdef.name headline;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %c%-12s %s@." (kind_tag c.cls_kind) c.cls_rel
        (verdict_to_string c.cls_verdict))
    t.classes;
  match maintained t with
  | [] -> ()
  | auxes ->
    Format.fprintf ppf "auxiliary views:@.";
    List.iter
      (fun a ->
        let cols =
          String.concat ", " (Schema.attr_names a.aux_schema)
        in
        (match a.aux_cond with
        | Predicate.True ->
          Format.fprintf ppf "  π_{%s}(%s)@." cols a.aux_rel
        | cond ->
          Format.fprintf ppf "  π_{%s}(σ_{%s}(%s))@." cols
            (Predicate.to_string cond) a.aux_rel))
      auxes
