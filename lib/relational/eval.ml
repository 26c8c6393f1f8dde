(* Term/query evaluation over compiled plans.

   {!Plan} fixes join order, layout, join keys, filters and projection
   positions once per term skeleton (cached); this module supplies the
   runtime: intermediate rows live in growable arrays, a base relation
   reached by an equi-join is probed once per row ({!Db.probe}: its
   column index, or one walk of a small relation, each match handed with
   its count), and every other slot is enumerated — no per-row attribute
   resolution.

   [naive_term]/[naive_query] keep the obviously-correct reference
   semantics (full cross product, filter, project) for property tests. *)

exception Eval_error of string

let error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Growable row buffers                                                *)
(* ------------------------------------------------------------------ *)

(* Intermediate join results: parallel growable arrays of rows and
   replication counts, replacing the consed (row, count) lists the old
   evaluator rebuilt at every slot. *)
module Rows = struct
  type t = {
    mutable data : Value.t array array;
    mutable counts : int array;
    mutable len : int;
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    { data = Array.make capacity [||]; counts = Array.make capacity 0; len = 0 }

  let push r row count =
    if r.len = Array.length r.data then begin
      let cap = 2 * r.len in
      let data = Array.make cap [||] and counts = Array.make cap 0 in
      Array.blit r.data 0 data 0 r.len;
      Array.blit r.counts 0 counts 0 r.len;
      r.data <- data;
      r.counts <- counts
    end;
    r.data.(r.len) <- row;
    r.counts.(r.len) <- count;
    r.len <- r.len + 1
end

type input =
  | Tuples of Bag.t
  | Relation of Db.t * string

let input_of_slot db = function
  | Term.Base s -> Relation (db, s.Schema.name)
  | Term.Lit (s, g, tup) ->
    Schema.check_tuple s tup;
    Tuples (Bag.singleton ~count:(Sign.to_int g) tup)

let enumerate = function
  | Tuples b -> b
  | Relation (db, rel) -> Db.contents db rel

(* ------------------------------------------------------------------ *)
(* Plan execution                                                      *)
(* ------------------------------------------------------------------ *)

let keep filter row =
  match filter with
  | None -> true
  | Some f -> f row

(* Equi-join keys compare like the [=] conjuncts they come from, so an
   Int key meets a numerically equal Float. *)
let keys_hold (keys : Plan.join_key array) row tup =
  let rec loop i =
    i >= Array.length keys
    ||
    let k = keys.(i) in
    Value.compare_for_predicate row.(k.Plan.probe_pos) (Tuple.get tup k.Plan.build_pos)
    = 0
    && loop (i + 1)
  in
  loop 0

(* One join step: every partial row of [rows] paired with each of the
   slot's tuples that passes the keys, handed to [emit row tup count].
   A probed base relation is probed once per row, each match arriving
   with its count ({!Db.probe}); anything else is enumerated per row (a
   probe key with a bag input is then checked like the others). Match
   order is free: rows only feed the next step and, at the last, a
   canonical bag. *)
let join_step (sp : Plan.slot_plan) input (rows : Rows.t) emit =
  let extend keys row cnt tup n = if keys_hold keys row tup then emit row tup (cnt * n) in
  match sp.Plan.probe, input with
  | Some probe, Relation (db, rel) ->
    let matches = Db.probe db rel probe.Plan.build_pos in
    for j = 0 to rows.Rows.len - 1 do
      let row = rows.Rows.data.(j) and cnt = rows.Rows.counts.(j) in
      matches row.(probe.Plan.probe_pos) (extend sp.Plan.keys row cnt)
    done
  | probe, input ->
    let keys =
      match probe with
      | None -> sp.Plan.keys
      | Some p -> Array.append [| p |] sp.Plan.keys
    in
    let contents = enumerate input in
    for j = 0 to rows.Rows.len - 1 do
      let row = rows.Rows.data.(j) and cnt = rows.Rows.counts.(j) in
      Bag.iter (fun tup n -> extend keys row cnt tup n) contents
    done

(* Execute a compiled plan, reading slot [i] from [input i]. Inputs are
   only requested while rows remain, so callers pay nothing for slots
   past an empty join prefix. The last step projects its rows straight
   into the result; with no residual filter to read the joined row, it
   projects straight from the partial row and the matched tuple, and
   the joined row is never built. This single executor serves both
   [term] below and the staged programs in {!Delta_program}: sharing it
   is what makes "compiled = interpreted" an identity rather than a
   theorem. *)
let run_plan ?(into = Bag.empty) (plan : Plan.t) ~(input : int -> input) ~sign =
  let acc = ref into in
  let proj = plan.Plan.proj in
  let steps = plan.Plan.slots in
  let last = Array.length steps - 1 in
  let out =
    match if last < 0 then None else steps.(last).Plan.filter with
    | None ->
      fun row tup cnt ->
        acc := Bag.add ~count:(cnt * sign) (Tuple.project_concat proj row tup) !acc
    | filter ->
      fun row tup cnt ->
        let row' = Tuple.concat row tup in
        if keep filter row' then
          acc := Bag.add ~count:(cnt * sign) (Tuple.project proj row') !acc
  in
  let rec go i rows =
    let sp = steps.(i) in
    if i = last then join_step sp (input sp.Plan.slot) rows out
    else begin
      let next = Rows.create ~capacity:rows.Rows.len () and filter = sp.Plan.filter in
      join_step sp (input sp.Plan.slot) rows (fun row tup cnt ->
          let row' = Tuple.concat row tup in
          if keep filter row' then Rows.push next row' cnt);
      if next.Rows.len > 0 then go (i + 1) next
    end
  in
  if not plan.Plan.pre_false then begin
    if last < 0 then out [||] [||] 1
    else begin
      let seed = Rows.create ~capacity:1 () in
      Rows.push seed [||] 1;
      go 0 seed
    end
  end;
  !acc

(* A term's result added to [into]: queries sum their terms without
   building each term's bag on its own. *)
let add_term into db (t : Term.t) =
  let plan = Plan.of_term t in
  let slots = Array.of_list t.Term.slots in
  run_plan ~into plan
    ~input:(fun i -> input_of_slot db slots.(i))
    ~sign:(Sign.to_int t.Term.sign)

let term db t = add_term Bag.empty db t

let query db q = List.fold_left (fun acc t -> add_term acc db t) Bag.empty q

let view db v = query db (Query.of_view v)

let check_literal (t : Term.t) =
  if not (Term.is_all_literals t) then
    error "literal_term: term still references base relations"

let literal_term t =
  check_literal t;
  term Db.empty t

let literal_query q =
  List.fold_left
    (fun acc t ->
      check_literal t;
      add_term acc Db.empty t)
    Bag.empty q

(* ------------------------------------------------------------------ *)
(* Naive reference evaluator                                           *)
(* ------------------------------------------------------------------ *)

(* Ground truth for equivalence tests: expand the full cross product of
   the slots, evaluate the condition by scanning the layout for every
   attribute reference, and project. No plans, no hash joins, no caches —
   deliberately slow and deliberately independent of the machinery above
   (only the layout/resolution helpers are shared). *)
let naive_term db (t : Term.t) =
  let layout = Plan.layout_of_slots t.Term.slots in
  let slot_rows slot =
    Bag.fold (fun tup n acc -> (tup, n) :: acc) (enumerate (input_of_slot db slot)) []
  in
  let rec cross = function
    | [] -> [ (([||] : Value.t array), 1) ]
    | slot :: rest ->
      let tails = cross rest in
      List.concat_map
        (fun (tup, n) ->
          List.map (fun (row, c) -> (Tuple.concat tup row, n * c)) tails)
        (slot_rows slot)
  in
  let lookup row a = row.(Plan.resolve layout a) in
  let proj = Array.of_list (List.map (Plan.resolve layout) t.Term.proj) in
  let sign_factor = Sign.to_int t.Term.sign in
  List.fold_left
    (fun acc (row, count) ->
      if Predicate.eval (lookup row) t.Term.cond then
        Bag.add ~count:(count * sign_factor) (Tuple.project proj row) acc
      else acc)
    Bag.empty (cross t.Term.slots)

let naive_query db q =
  List.fold_left (fun acc t -> Bag.plus acc (naive_term db t)) Bag.empty q
