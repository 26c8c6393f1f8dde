(* Term/query evaluation over compiled plans.

   {!Plan} fixes join order, layout, join keys, filters and projection
   positions once per term skeleton (cached); this module supplies the
   runtime: intermediate rows live in growable arrays, a base relation
   reached by an equi-join is probed once per row ({!Db.probe}: its
   column index, or one walk of a small relation, each match handed with
   its count), and every other slot is enumerated — no per-row attribute
   resolution. *)

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
   past an empty join prefix. The last step projects each match once per
   projection [projs.(j)], adding it to [acc.(j)]: views that share a
   join but keep different columns advance with one pass. With no
   residual filter to read the joined row, it projects straight from
   the partial row and the matched tuple, and the joined row is never
   built. This single executor serves [query] below and the staged
   programs in {!Delta_program}, one projection or several: sharing it
   is what makes "compiled = interpreted" an identity rather than a
   theorem. *)
let run_plan_into (plan : Plan.t) ~projs acc ~(input : int -> input) ~sign =
  let k = Array.length projs in
  let steps = plan.Plan.slots in
  let last = Array.length steps - 1 in
  let out =
    match if last < 0 then None else steps.(last).Plan.filter with
    | None when k = 1 ->
      (* the common case, without the loop and in a smaller closure *)
      let proj = projs.(0) in
      fun row tup cnt ->
        acc.(0) <- Bag.add ~count:(cnt * sign) (Tuple.project_concat proj row tup) acc.(0)
    | None ->
      fun row tup cnt ->
        for j = 0 to k - 1 do
          acc.(j) <-
            Bag.add ~count:(cnt * sign) (Tuple.project_concat projs.(j) row tup) acc.(j)
        done
    | filter ->
      fun row tup cnt ->
        let row' = Tuple.concat row tup in
        if keep filter row' then
          for j = 0 to k - 1 do
            acc.(j) <- Bag.add ~count:(cnt * sign) (Tuple.project projs.(j) row') acc.(j)
          done
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
  end

(* The one-projection case: the plan's own projection into [into]. *)
let run_plan ?(into = Bag.empty) (plan : Plan.t) ~input ~sign =
  let acc = [| into |] in
  run_plan_into plan ~projs:plan.Plan.projs acc ~input ~sign;
  acc.(0)

(* A term's result added to [into] through [plan], compiled for its
   skeleton: queries sum their terms without building each term's bag
   on its own. *)
let add_planned into plan db (t : Term.t) =
  let slots = Array.of_list t.Term.slots in
  run_plan ~into plan
    ~input:(fun i -> input_of_slot db slots.(i))
    ~sign:(Sign.to_int t.Term.sign)

let add_term into db t = add_planned into (Plan.of_term t) db t

let planned_term plan db t = add_planned Bag.empty plan db t

let query db q = List.fold_left (fun acc t -> add_term acc db t) Bag.empty q

let view db v = query db (Query.of_view v)

let check_literal (t : Term.t) =
  if not (Term.is_all_literals t) then
    error "literal_term: term still references base relations"

(* An all-literal term is one row: each step of its plan (every slot
   bound, so in source order and with no probe) joins its literal tuple
   to the row built so far if the step's keys and filter pass, and the
   last step projects the row into [into] — straight from the row and
   the tuple when no filter reads their concatenation, as in [run_plan].
   A step is reached, and its tuple checked against its schema, only
   while the row survives — exactly the slots [run_plan] would read — so
   no row buffer, singleton bag or input closure is built. *)
let add_literal into (t : Term.t) =
  check_literal t;
  let plan = Plan.of_term t in
  let steps = plan.Plan.slots in
  let last = Array.length steps - 1 in
  let literal i =
    match List.nth t.Term.slots i with
    | Term.Lit (s, g, tup) ->
      Schema.check_tuple s tup;
      (tup, Sign.to_int g)
    | Term.Base _ -> assert false  (* [check_literal] passed *)
  in
  let sign = Sign.to_int t.Term.sign and proj = plan.Plan.proj in
  let rec go i row cnt =
    let sp = steps.(i) in
    let tup, n = literal sp.Plan.slot in
    let cnt = cnt * n in
    if not (keys_hold sp.Plan.keys row tup) then into
    else if i = last && Option.is_none sp.Plan.filter then
      Bag.add ~count:(cnt * sign) (Tuple.project_concat proj row tup) into
    else
      (* rows are never written, so the first step's row is its tuple *)
      let row' = if i = 0 then tup else Tuple.concat row tup in
      if not (keep sp.Plan.filter row') then into
      else if i = last then Bag.add ~count:(cnt * sign) (Tuple.project proj row') into
      else go (i + 1) row' cnt
  in
  if plan.Plan.pre_false then into
  else if last < 0 then Bag.add ~count:sign (Tuple.project proj [||]) into
  else go 0 [||] 1

let literal_query q = List.fold_left add_literal Bag.empty q
