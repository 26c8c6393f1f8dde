type slot =
  | Base of Schema.t
  | Lit of Schema.t * Sign.t * Tuple.t

type t = {
  sign : Sign.t;
  proj : Attr.t list;
  cond : Predicate.t;
  slots : slot list;
}

let slot_schema = function
  | Base s -> s
  | Lit (s, _, _) -> s

let of_view (v : View.t) =
  {
    sign = Sign.Pos;
    proj = v.View.proj;
    cond = v.View.cond;
    slots = List.map (fun s -> Base s) v.View.sources;
  }

let negate t = { t with sign = Sign.negate t.sign }

let base_relations t =
  List.filter_map
    (function Base s -> Some s.Schema.name | Lit _ -> None)
    t.slots

let is_all_literals t =
  List.for_all (function Lit _ -> true | Base _ -> false) t.slots

let mentions_base t rel =
  List.exists
    (function
      | Base s -> String.equal s.Schema.name rel
      | Lit _ -> false)
    t.slots

(* T⟨U⟩ (Section 4.2): if U's relation already appears as a literal tuple in
   the term, the substituted term is empty (None); otherwise replace that
   base-relation slot with U's signed tuple. *)
let subst t (u : Update.t) =
  let hit_literal =
    List.exists
      (function
        | Lit (s, _, _) -> String.equal s.Schema.name u.Update.rel
        | Base _ -> false)
      t.slots
  in
  if hit_literal then None
  else if not (mentions_base t u.Update.rel) then None
  else
    let slots =
      List.map
        (function
          | Base s when String.equal s.Schema.name u.Update.rel ->
            Schema.check_tuple s u.Update.tuple;
            Lit (s, Update.sign u, u.Update.tuple)
          | slot -> slot)
        t.slots
    in
    Some { t with slots }

(* Message size of a term when shipped to the source: relation references
   cost their name, literal tuples their data. A small fixed overhead per
   term covers projection/condition text. *)
let byte_size t =
  let slot_bytes = function
    | Base s -> String.length s.Schema.name
    | Lit (s, _, tup) -> String.length s.Schema.name + 1 + Tuple.byte_size tup
  in
  16 + List.fold_left (fun acc s -> acc + slot_bytes s) 0 t.slots

(* Slot sources (base relations and substituted literals, with signs)
   folded onto [init] — the parts that actually vary between the
   delta/compensation terms of one view, which the depth-limited
   polymorphic hash never reaches behind the projection and condition. *)
let slots_hash init slots =
  let slot_hash acc = function
    | Base s -> (acc * 31) + Hashtbl.hash s.Schema.name
    | Lit (s, g, tup) ->
      (((((acc * 31) + Hashtbl.hash s.Schema.name) * 31) + Sign.to_int g + 1)
       * 31)
      + Tuple.hash tup
  in
  List.fold_left slot_hash init slots

(* Consistent with [equal]. *)
let hash t = slots_hash ((Hashtbl.hash t.sign * 31) + Hashtbl.hash t.proj) t.slots

(* The MQO skeleton signature (DESIGN.md §4h): sign, slot sources and
   condition, but not the projection — two terms share it when they
   read the same slots and keep the same join keys and filters, so one
   evaluation serves both once its projection covers both. Collisions
   are possible as with any digest; sharers confirm with
   [skeleton_equal]. *)
let signature t = (slots_hash (Hashtbl.hash t.sign) t.slots * 31) + Hashtbl.hash t.cond

let skeleton_equal a b =
  let slot_equal x y =
    match x, y with
    | Base s1, Base s2 -> Schema.equal s1 s2
    | Lit (s1, g1, t1), Lit (s2, g2, t2) ->
      Schema.equal s1 s2 && Sign.equal g1 g2 && Tuple.equal t1 t2
    | (Base _ | Lit _), _ -> false
  in
  Sign.equal a.sign b.sign
  && Predicate.equal a.cond b.cond
  && List.equal slot_equal a.slots b.slots

let equal a b = Attr.equal_list a.proj b.proj && skeleton_equal a b

let same_shape a b =
  let same_slot x y =
    match x, y with
    | Base s, Base s' | Lit (s, _, _), Lit (s', _, _) -> s == s'
    | (Base _ | Lit _), _ -> false
  in
  a.cond == b.cond && List.equal same_slot a.slots b.slots

let pp ppf t =
  let pp_slot ppf = function
    | Base s -> Format.pp_print_string ppf s.Schema.name
    | Lit (s, g, tup) ->
      Format.fprintf ppf "%s:%s%s" s.Schema.name (Sign.to_string g)
        (Tuple.to_string tup)
  in
  Format.fprintf ppf "%sπ[%s]σ[%a](%a)"
    (match t.sign with Sign.Pos -> "" | Sign.Neg -> "-")
    (String.concat "," (List.map Attr.to_string t.proj))
    Predicate.pp t.cond
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " x ") pp_slot)
    t.slots

let to_string t = Format.asprintf "%a" pp t
