(* Staged delta programs: one compiled maintenance procedure per
   view x update class.

   [Viewdef.delta] re-derives V<U> on every update: substitute the
   update's relation into each part (allocating fresh terms), look each
   term's skeleton up in the plan cache (hashing the projection, condition
   and schema list), and only then evaluate. All of that work depends only
   on the update's *class* — its relation and kind — not on the tuple, so
   this module does it once at registration time. A staged program holds,
   per view part that mentions the relation: the cached {!Plan}, a
   slot-source vector telling the executor which slots read the database
   and which read the update's tuple, and the folded-out sign factor. The
   per-update hot path is then: check the tuple against the schema, build
   a singleton bag, run the plan.

   Staging also unlocks batching. A batch of same-class updates is a bag
   of tuples; [View.make] rejects a relation mentioned twice, so the
   updated relation occupies exactly one slot of every chain and the plan
   is linear in that slot's contents: one pass with the whole bag equals
   the signed sum of the per-tuple passes — N interpreter walks collapse
   into one join.

   The warehouse's ECA family ships V<U> instead of evaluating it, so for
   it staging stops at the terms ([stage_terms]): per relation, each
   mentioning part's term, the slot the update fills and its schema.
   The terms keep the view's projection, condition and schemas
   physically, and the owners further down prepare on that: an ECA
   instance its guard templates, a warehouse its widened projections
   ([Query.widenings]); a source's plan-cache lookup settles its key
   compare by pointer tests and takes the planner's join edges from the
   plan ([Plan.t]'s [relation_joins]).

   Views whose programs differ only in projection stage once
   ([stage_shared]): each chain joins once and projects the result for
   every view ([Eval.run_plan_into]).

   Who owns what: the engine keeps one [staged] per group of shareable
   views, SC one per instance, a [Selfmaint] analysis one program per
   locally maintained part, and each ECA-family instance its [terms].
   Nothing here is cached; only the plans underneath are, per domain,
   through [Plan.of_term]. *)

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* Where slot [i] of a chain's plan reads its contents at apply time. *)
type source =
  | From_db of string  (* a base relation untouched by the update class *)
  | From_delta         (* the update tuple(s), as a bag *)

type chain = {
  plan : Plan.t;
  projs : int array array;  (* one per view the program advances *)
  sources : source array;
  delta_schema : Schema.t;  (* schema of the substituted relation *)
  sign_factor : int;        (* part sign x update sign *)
}

type t = {
  rel : string;
  kind : Update.kind;
  chains : chain list;  (* one per view part mentioning [rel] *)
}

let is_empty t = t.chains = []

(* Two definitions one program can advance: part for part the same sign
   and the same skeleton — the same slots, condition and term sign —
   whatever each part projects. *)
let shareable (a : Viewdef.t) (b : Viewdef.t) =
  List.equal
    (fun (sa, va) (sb, vb) ->
      Sign.equal sa sb && Term.skeleton_equal (Term.of_view va) (Term.of_view vb))
    a.Viewdef.parts b.Viewdef.parts

(* The class program of [first] and [others], all [shareable]: the
   first view's parts give each chain's plan, and every view adds its
   own part's projection, resolved through a plan of its term under the
   same bound-slot mask — equal skeletons give equal join orders and
   layouts, so the positions index the same joined row. *)
let stage_class_shared (first : Viewdef.t) others ~rel ~kind =
  let kind_sign = match kind with Update.Insert -> 1 | Update.Delete -> -1 in
  let rec chains p = function
    | [] -> []
    | (part_sign, (v : View.t)) :: parts ->
      let term = Term.of_view v in
      if not (Term.mentions_base term rel) then chains (p + 1) parts
      else begin
        let sources =
          Array.of_list
            (List.map
               (fun (s : Schema.t) ->
                 if String.equal s.Schema.name rel then From_delta
                 else From_db s.Schema.name)
               v.View.sources)
        in
        let delta_schema =
          List.find
            (fun (s : Schema.t) -> String.equal s.Schema.name rel)
            v.View.sources
        in
        let bound = Array.map (fun s -> s = From_delta) sources in
        let plan = Plan.of_term ~bound term in
        let projs =
          match others with
          | [] -> plan.Plan.projs
          | _ ->
            Array.of_list
              (plan.Plan.proj
               :: List.map
                    (fun (vd : Viewdef.t) ->
                      let _, v' = List.nth vd.Viewdef.parts p in
                      (Plan.of_term ~bound (Term.of_view v')).Plan.proj)
                    others)
        in
        let chain =
          { plan; projs; sources; delta_schema;
            sign_factor = Sign.to_int part_sign * kind_sign }
        in
        chain :: chains (p + 1) parts
      end
  in
  { rel; kind; chains = chains 0 first.Viewdef.parts }

let stage_class vd ~rel ~kind = stage_class_shared vd [] ~rel ~kind

(* ------------------------------------------------------------------ *)
(* Application                                                         *)
(* ------------------------------------------------------------------ *)

let apply_chain ch db delta acc =
  Eval.run_plan_into ch.plan ~projs:ch.projs acc
    ~input:(fun i ->
      match ch.sources.(i) with
      | From_db r -> Eval.Relation (db, r)
      | From_delta -> Eval.Tuples delta)
    ~sign:ch.sign_factor

(* One pass per chain with the whole batch as the delta slot's bag;
   duplicate tuples merge their counts, which is exactly their summed
   per-tuple contribution. *)
let apply_shared t db tuples acc =
  match tuples with
  | [] -> ()
  | _ ->
    let delta =
      List.fold_left (fun b tuple -> Bag.add tuple b) Bag.empty tuples
    in
    List.iter
      (fun ch ->
        List.iter (Schema.check_tuple ch.delta_schema) tuples;
        apply_chain ch db delta acc)
      t.chains

let apply_batch ?(into = Bag.empty) t db tuples =
  let acc = [| into |] in
  apply_shared t db tuples acc;
  acc.(0)

(* [apply_batch] of one tuple, without the list and per-chain closure. *)
let apply ?(into = Bag.empty) t db tuple =
  let delta = Bag.add tuple Bag.empty and acc = [| into |] in
  List.iter
    (fun ch ->
      Schema.check_tuple ch.delta_schema tuple;
      apply_chain ch db delta acc)
    t.chains;
  acc.(0)

(* ------------------------------------------------------------------ *)
(* Per-view staging                                                    *)
(* ------------------------------------------------------------------ *)

type staged = (string, t * t) Hashtbl.t  (* rel -> (insert, delete) *)

let stage_shared = function
  | [] -> invalid_arg "Delta_program.stage_shared: no view"
  | first :: others ->
    if others <> [] && not (List.for_all (shareable first) others) then
      invalid_arg "Delta_program.stage_shared: the views share no skeleton";
    let programs = Hashtbl.create 8 in
    List.iter
      (fun rel ->
        Hashtbl.replace programs rel
          ( stage_class_shared first others ~rel ~kind:Update.Insert,
            stage_class_shared first others ~rel ~kind:Update.Delete ))
      (Viewdef.relation_names first);
    programs

let stage vd = stage_shared [ vd ]

let find s ~rel ~kind =
  match Hashtbl.find_opt s rel with
  | None -> None
  | Some (ins, del) ->
    Some (match kind with Update.Insert -> ins | Update.Delete -> del)

let of_update s (u : Update.t) = find s ~rel:u.Update.rel ~kind:u.Update.kind

(* ------------------------------------------------------------------ *)
(* Staged delta terms                                                  *)
(* ------------------------------------------------------------------ *)

(* V<U> as the terms a warehouse ships rather than evaluates: per
   relation, each view part mentioning it as its term (part sign folded
   in), the slot the update's tuple fills and that slot's schema. An
   update then only checks its tuple and builds the slot list around
   it; the projection, condition and schemas stay the view's own, which
   is what lets the source find the skeleton by physical identity. *)
type delta_term = {
  term : Term.t;
  slot : int;
  schema : Schema.t;
}

type terms = (string * delta_term list) list

let stage_terms (vd : Viewdef.t) =
  List.map
    (fun rel ->
      ( rel,
        List.filter_map
          (fun (part_sign, (v : View.t)) ->
            let term =
              match part_sign with
              | Sign.Pos -> Term.of_view v
              | Sign.Neg -> Term.negate (Term.of_view v)
            in
            List.find_index
              (fun (s : Schema.t) -> String.equal s.Schema.name rel)
              v.View.sources
            |> Option.map (fun slot ->
                   { term; slot; schema = List.nth v.View.sources slot }))
          vd.Viewdef.parts ))
    (Viewdef.relation_names vd)

let delta_query terms (u : Update.t) =
  match List.assoc_opt u.Update.rel terms with
  | None -> []
  | Some ds ->
    List.map
      (fun d ->
        Schema.check_tuple d.schema u.Update.tuple;
        let lit = Term.Lit (d.schema, Update.sign u, u.Update.tuple) in
        (* the slots after the update's are the view's own list *)
        let rec fill i = function
          | [] -> []
          | s :: rest -> if i = d.slot then lit :: rest else s :: fill (i + 1) rest
        in
        { d.term with Term.slots = fill 0 d.term.Term.slots })
      ds

(* Split a batch into maximal runs of one update class, preserving order.
   Within a run every update substitutes the same relation with the same
   sign, so [apply_batch] on the run's tuples is the run's exact delta;
   runs must still execute in sequence because a later run's chains may
   read a relation an earlier run changed. *)
let runs updates =
  let rec go acc = function
    | [] -> List.rev acc
    | (u : Update.t) :: _ as l ->
      let same (v : Update.t) =
        String.equal v.Update.rel u.Update.rel && v.Update.kind = u.Update.kind
      in
      let rec split taken = function
        | v :: rest when same v -> split (v :: taken) rest
        | rest -> (List.rev taken, rest)
      in
      let run, rest = split [] l in
      go (run :: acc) rest
  in
  go [] updates
