(* Compiled evaluation plans for SPJ terms.

   Evaluating a term needs its column layout, its conjuncts classified
   into join keys and residual filters, and every attribute position
   resolved. A view is evaluated thousands of times per simulated run
   (every delta query, every compensation, every oracle snapshot), so this
   module compiles a term once into position-resolved artifacts and caches
   the result.

   The cache key is the term's *skeleton*: projection list, condition and
   slot schemas. The literal tuple values and the term sign are deliberately
   excluded — ECA's per-update delta terms T⟨U⟩ differ from the view's own
   term only in which slot is a literal and in the substituted tuple, and
   neither changes the layout, the join keys, the filter positions nor the
   projection positions. One compiled plan therefore serves the view term
   and every delta/compensation term derived from it. *)

exception Plan_error of string

let error fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

(* Column layout of a term: the concatenation of its slots' columns, each
   tagged with its relation. Slot [i] occupies positions
   [offsets.(i) .. offsets.(i) + arity_i - 1]. *)
type layout = {
  cols : (string * string) array;  (* (relation, column) per position *)
  offsets : int array;             (* first position of each slot *)
}

let layout_of_schemas schemas =
  let cols = ref [] and offsets = ref [] and off = ref 0 in
  List.iter
    (fun (s : Schema.t) ->
      offsets := !off :: !offsets;
      List.iter
        (fun c ->
          cols := (s.Schema.name, c) :: !cols;
          incr off)
        (Schema.attr_names s))
    schemas;
  { cols = Array.of_list (List.rev !cols); offsets = Array.of_list (List.rev !offsets) }

let layout_of_slots slots = layout_of_schemas (List.map Term.slot_schema slots)

let resolve layout (a : Attr.t) =
  let hits = ref [] in
  Array.iteri
    (fun i (rel, name) -> if Attr.matches ~rel ~name a then hits := i :: !hits)
    layout.cols;
  match !hits with
  | [ i ] -> i
  | [] -> error "unresolved attribute %s" (Attr.to_string a)
  | _ -> error "ambiguous attribute %s" (Attr.to_string a)

let slot_of_position layout pos =
  let n = Array.length layout.offsets in
  let rec loop i = if i + 1 < n && layout.offsets.(i + 1) <= pos then loop (i + 1) else i in
  loop 0

(* ------------------------------------------------------------------ *)
(* Compiled filters                                                    *)
(* ------------------------------------------------------------------ *)

type filter = Value.t array -> bool

(* Compile a predicate into a closure with every attribute position
   resolved *now*, at plan-build time. An unbound or ambiguous attribute
   raises here — never inside the row loop. *)
let compile_operand layout = function
  | Predicate.Col a ->
    let i = resolve layout a in
    fun (row : Value.t array) -> row.(i)
  | Predicate.Const v -> fun _ -> v

let rec compile_pred layout p : filter =
  match p with
  | Predicate.True -> fun _ -> true
  | Predicate.False -> fun _ -> false
  | Predicate.Cmp (c, x, y) ->
    let fx = compile_operand layout x and fy = compile_operand layout y in
    fun row -> Predicate.cmp_holds c (Value.compare_for_predicate (fx row) (fy row))
  | Predicate.And (a, b) ->
    let fa = compile_pred layout a and fb = compile_pred layout b in
    fun row -> fa row && fb row
  | Predicate.Or (a, b) ->
    let fa = compile_pred layout a and fb = compile_pred layout b in
    fun row -> fa row || fb row
  | Predicate.Not a ->
    let fa = compile_pred layout a in
    fun row -> not (fa row)

let conj_filter = function
  | [] -> None
  | fs ->
    let fs = Array.of_list fs in
    Some (fun row -> Array.for_all (fun f -> f row) fs)

(* ------------------------------------------------------------------ *)
(* Join order and conjunct classification                              *)
(* ------------------------------------------------------------------ *)

(* A conjunct [colA = colB] whose two sides land in different slots
   becomes a join key of whichever slot the plan joins later. *)
type join_key = {
  probe_pos : int;  (* position among already-joined columns *)
  build_pos : int;  (* position within the new slot's own columns *)
}

type slot_plan = {
  slot : int;                 (* the term slot this step joins *)
  probe : join_key option;    (* index probe into a base relation *)
  keys : join_key array;      (* equi-join keys checked per candidate *)
  filter : filter option;     (* residual conjuncts, all positions resolved *)
}

type t = {
  pre_false : bool;       (* a constant-only conjunct is statically false *)
  slots : slot_plan array;
  proj : int array;       (* projection positions into the full layout *)
  projs : int array array;  (* [| proj |], for the one-projection executor *)
  relation_joins : (string * string * string * string) list;
}

(* Equi-join conjuncts between qualified columns of two distinct
   relations, as (relA, attrA, relB, attrB): what a physical planner
   prices probes along. They depend on the condition alone. *)
let relation_joins cond =
  List.filter_map
    (function
      | Predicate.Cmp (Predicate.Eq, Predicate.Col a, Predicate.Col b) -> (
        match a.Attr.rel, b.Attr.rel with
        | Some ra, Some rb when not (String.equal ra rb) ->
          Some (ra, a.Attr.name, rb, b.Attr.name)
        | _ -> None)
      | _ -> None)
    (Predicate.conjuncts cond)

(* Highest column position referenced by a predicate; -1 when it has no
   attribute references (constant-only conjuncts). *)
let max_position layout p =
  List.fold_left (fun acc a -> max acc (resolve layout a)) (-1) (Predicate.attrs p)

(* Slot pairs linked by an equi-join conjunct, in source layout terms. *)
let join_edges layout cond =
  List.filter_map
    (function
      | Predicate.Cmp (Predicate.Eq, Predicate.Col a, Predicate.Col b) ->
        let sa = slot_of_position layout (resolve layout a)
        and sb = slot_of_position layout (resolve layout b) in
        if sa = sb then None else Some (sa, sb)
      | _ -> None)
    (Predicate.conjuncts cond)

(* Delta-first join order: the bound slots (literals, delta bags) in
   source order, then repeatedly the first base slot an equi-join edge
   reaches from the slots already placed — joined by probing its index
   — and, when none is reachable, the first remaining slot as a cross
   product. With nothing bound this is source order for chain joins. *)
let join_order layout ~bound cond =
  let n = Array.length bound in
  let slots = List.init n Fun.id in
  let edges = join_edges layout cond in
  let placed = Array.copy bound in
  let reachable i =
    List.exists
      (fun (a, b) -> (a = i && placed.(b)) || (b = i && placed.(a)))
      edges
  in
  let rec extend rev_order =
    match List.filter (fun i -> not placed.(i)) slots with
    | [] -> List.rev rev_order
    | first :: _ as rest ->
      let next = Option.value (List.find_opt reachable rest) ~default:first in
      placed.(next) <- true;
      extend (next :: rev_order)
  in
  extend (List.rev (List.filter (fun i -> bound.(i)) slots))

let compile_ordered ~bound ~order ~schemas ~cond ~proj =
  let layout = layout_of_schemas (List.map (fun i -> schemas.(i)) order) in
  let nslots = List.length order in
  let joins = Array.make nslots [] in
  let filters = Array.make nslots [] in
  let pre = ref [] in
  let assign p =
    match p with
    | Predicate.Cmp (Predicate.Eq, Predicate.Col a, Predicate.Col b) -> (
      let pa = resolve layout a and pb = resolve layout b in
      let sa = slot_of_position layout pa and sb = slot_of_position layout pb in
      if sa = sb then filters.(sa) <- p :: filters.(sa)
      else
        let later, (probe_pos, build_pos) =
          if sa < sb then sb, (pa, pb - layout.offsets.(sb))
          else sa, (pb, pa - layout.offsets.(sa))
        in
        joins.(later) <- { probe_pos; build_pos } :: joins.(later))
    | _ -> (
      match max_position layout p with
      | -1 -> pre := p :: !pre
      | pos ->
        let s = slot_of_position layout pos in
        filters.(s) <- p :: filters.(s))
  in
  List.iter assign (Predicate.conjuncts cond);
  let proj = Array.of_list (List.map (resolve layout) proj) in
  let pre_false =
    (* Constant-only conjuncts reference no attributes, so the lookup
       function is never consulted. *)
    List.exists
      (fun p -> not (Predicate.eval (fun _ -> assert false) p))
      !pre
  in
  {
    pre_false;
    slots =
      Array.of_list
        (List.mapi
           (fun e slot ->
             let keys = List.rev joins.(e) in
             let probe, keys =
               match keys with
               | k :: rest when not bound.(slot) -> (Some k, rest)
               | _ -> (None, keys)
             in
             {
               slot;
               probe;
               keys = Array.of_list keys;
               filter = conj_filter (List.map (compile_pred layout) filters.(e));
             })
           order);
    proj;
    projs = [| proj |];
    relation_joins = relation_joins cond;
  }

let literal_slots (t : Term.t) =
  Array.of_list
    (List.map (function Term.Lit _ -> true | Term.Base _ -> false) t.Term.slots)

let compile ?bound (t : Term.t) =
  let bound = Option.value bound ~default:(literal_slots t) in
  if Array.length bound <> List.length t.Term.slots then
    error "bound-slot mask has %d entries for %d slots" (Array.length bound)
      (List.length t.Term.slots);
  let schemas = Array.of_list (List.map Term.slot_schema t.Term.slots) in
  let order =
    join_order (layout_of_schemas (Array.to_list schemas)) ~bound t.Term.cond
  in
  compile_ordered ~bound ~order ~schemas ~cond:t.Term.cond ~proj:t.Term.proj

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

(* The plan skeleton: projection, condition and slot schemas. *)
type skeleton = {
  proj : Attr.t list;
  cond : Predicate.t;
  schemas : Schema.t list;
}

let skeleton (t : Term.t) =
  {
    proj = t.Term.proj;
    cond = t.Term.cond;
    schemas = List.map Term.slot_schema t.Term.slots;
  }

(* The cache key: the skeleton plus the bound-slot mask, which fixes the
   join order. *)
module Key = struct
  type t = {
    skel : skeleton;
    bound : bool array;
  }

  let equal a b =
    Attr.equal_list a.skel.proj b.skel.proj
    && Predicate.equal a.skel.cond b.skel.cond
    && List.equal Schema.equal a.skel.schemas b.skel.schemas
    && a.bound = b.bound

  (* Collisions are resolved by [equal]. *)
  let hash k = (Hashtbl.hash k.skel * 31) + Hashtbl.hash k.bound
end

module Cache = Hashtbl.Make (Key)

(* Distinct skeletons are per *view shape*, not per update, so the cache
   stays tiny in practice. The bound is a safety valve for adversarial
   long-running processes that keep minting fresh view shapes. *)
let max_cached_plans = 1024

(* The cache is domain-local (Domain.DLS): each domain compiles into and
   hits its own table, so concurrent simulator runs on a domain pool
   never contend on — or corrupt — shared Hashtbl state. The price is
   one compilation per skeleton per domain that evaluates it, which is
   negligible next to the evaluations the plan amortizes. *)
let table_key = Domain.DLS.new_key (fun () -> Cache.create 64)

let of_term ?bound (t : Term.t) =
  let table = Domain.DLS.get table_key in
  let bound = Option.value bound ~default:(literal_slots t) in
  let key = { Key.skel = skeleton t; bound } in
  match Cache.find_opt table key with
  | Some plan -> plan
  | None ->
    let plan = compile ~bound t in
    if Cache.length table >= max_cached_plans then Cache.reset table;
    Cache.add table key plan;
    plan
