module R = Relational

(* The Example-6 chain schema: r1(W,X) ⋈ r2(X,Y) ⋈ r3(Y,Z). No key
   declarations — with join factor J > 1 the join attributes repeat, so
   none of the columns is a real key (the keyed scenario below is separate). *)
let chain_r1 = R.Schema.of_names "r1" [ "W"; "X" ]
let chain_r2 = R.Schema.of_names "r2" [ "X"; "Y" ]
let chain_r3 = R.Schema.of_names "r3" [ "Y"; "Z" ]

let chain_schemas = [ chain_r1; chain_r2; chain_r3 ]

let rand_below st n = if n <= 0 then 0 else Random.State.int st n

(* The prefix sums of the Zipf weights 1/(i+1)^skew over [0, n), added
   left to right, cached per (skew, n) in each domain: draws on one
   domain share them, and domains never race on one table. *)
let zipf_sums =
  let cache = Domain.DLS.new_key (fun () -> Hashtbl.create 8) in
  fun skew n ->
    let tbl = Domain.DLS.get cache in
    match Hashtbl.find_opt tbl (skew, n) with
    | Some sums -> sums
    | None ->
      let sums = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) skew);
        sums.(i) <- !acc
      done;
      Hashtbl.replace tbl (skew, n) sums;
      sums

(* Zipf-distributed value in [0, n): P(i) proportional to 1/(i+1)^skew.
   skew = 0 degenerates to uniform. Inverse CDF: the first index whose
   prefix sum reaches a uniform draw over the total, found by binary
   search and capped at n - 1. *)
let zipf_below ~skew st n =
  if n <= 0 then 0
  else if skew <= 0.0 then Random.State.int st n
  else begin
    let sums = zipf_sums skew n in
    let target = Random.State.float st sums.(n - 1) in
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if sums.(mid) >= target then first lo mid else first (mid + 1) hi
    in
    first 0 (n - 1)
  end

let chain_tuple (spec : Spec.t) st rel =
  let dom = Spec.join_domain spec in
  let vr = spec.Spec.value_range in
  let join () = zipf_below ~skew:spec.Spec.skew st dom in
  match rel with
  | "r1" -> R.Tuple.ints [ rand_below st vr; join () ]
  | "r2" -> R.Tuple.ints [ join (); join () ]
  | "r3" -> R.Tuple.ints [ join (); rand_below st vr ]
  | r -> invalid_arg ("Generator.chain_tuple: unknown relation " ^ r)

let fill spec st db rel =
  let rec go db n =
    if n = 0 then db
    else go (R.Db.apply db (R.Update.insert rel (chain_tuple spec st rel))) (n - 1)
  in
  go db spec.Spec.c

let example6_db (spec : Spec.t) =
  let st = Random.State.make [| spec.Spec.seed |] in
  let db =
    List.fold_left (fun db s -> R.Db.add_relation db s) R.Db.empty chain_schemas
  in
  List.fold_left (fun db s -> fill spec st db s.R.Schema.name) db chain_schemas

(* [Db.nth] walks the relation in canonical tuple order, so the workload
   drawn from a given seed does not depend on the bag's internal (hash)
   ordering. *)
let pick_existing st db rel =
  let n = R.Db.cardinality db rel in
  if n = 0 then None else R.Db.nth db rel (rand_below st n)

(* k updates over the chain schema. With [round_robin] the relations cycle
   r1, r2, r3, … (Example 6's update pattern, which the k-update analysis
   of Appendix D assumes on average); otherwise each update picks its
   relation uniformly. Deletes target a uniformly chosen existing tuple of
   the evolving state; when a relation is empty an insert is substituted. *)
let example6_updates ?(round_robin = true) (spec : Spec.t) ~db =
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let rels = [| "r1"; "r2"; "r3" |] in
  let rec go db acc i =
    if i >= spec.Spec.k_updates then List.rev acc
    else begin
      let rel =
        if round_robin then rels.(i mod 3)
        else rels.(rand_below st 3)
      in
      let is_insert =
        Random.State.float st 1.0 < spec.Spec.insert_ratio
      in
      let u =
        if is_insert then R.Update.insert rel (chain_tuple spec st rel)
        else
          match pick_existing st db rel with
          | Some t -> R.Update.delete rel t
          | None -> R.Update.insert rel (chain_tuple spec st rel)
      in
      go (R.Db.apply db u) (u :: acc) (i + 1)
    end
  in
  go db [] 0

(* --- Keyed two-relation scenario for ECAK / ECAL workloads ---

   orders(oid KEY, cust) ⋈ customers(cust, cname KEY is wrong; we keep the
   paper's shape instead): r1(W KEY, X) ⋈ r2(X, Y KEY) with W and Y unique,
   X shared with join factor J. The view π_{W,Y} covers both keys. *)

let keyed_r1 = R.Schema.of_names ~key:[ "W" ] "r1" [ "W"; "X" ]
let keyed_r2 = R.Schema.of_names ~key:[ "Y" ] "r2" [ "X"; "Y" ]

let keyed_schemas = [ keyed_r1; keyed_r2 ]

let keyed_db (spec : Spec.t) =
  let dom = Spec.join_domain spec in
  let db =
    List.fold_left (fun db s -> R.Db.add_relation db s) R.Db.empty keyed_schemas
  in
  let st = Random.State.make [| spec.Spec.seed |] in
  let db = ref db in
  for w = 0 to spec.Spec.c - 1 do
    db :=
      R.Db.apply !db
        (R.Update.insert "r1" (R.Tuple.ints [ w; rand_below st dom ]))
  done;
  for y = 0 to spec.Spec.c - 1 do
    db :=
      R.Db.apply !db
        (R.Update.insert "r2" (R.Tuple.ints [ rand_below st dom; y ]))
  done;
  !db

(* Inserts use fresh key values (starting above the initial population);
   deletes pick existing tuples. *)
let keyed_updates (spec : Spec.t) ~db =
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let dom = Spec.join_domain spec in
  let next_w = ref spec.Spec.c and next_y = ref spec.Spec.c in
  let fresh_insert rel =
    if String.equal rel "r1" then begin
      let w = !next_w in
      incr next_w;
      R.Update.insert "r1" (R.Tuple.ints [ w; rand_below st dom ])
    end
    else begin
      let y = !next_y in
      incr next_y;
      R.Update.insert "r2" (R.Tuple.ints [ rand_below st dom; y ])
    end
  in
  let rec go db acc i =
    if i >= spec.Spec.k_updates then List.rev acc
    else begin
      let rel = if rand_below st 2 = 0 then "r1" else "r2" in
      let is_insert = Random.State.float st 1.0 < spec.Spec.insert_ratio in
      let u =
        if is_insert then fresh_insert rel
        else
          match pick_existing st db rel with
          | Some t -> R.Update.delete rel t
          | None -> fresh_insert rel
      in
      go (R.Db.apply db u) (u :: acc) (i + 1)
    end
  in
  go db [] 0

(* --- Self-maintainable and adversarial families (DESIGN.md §4j) ---

   The self-maintainable family declares both keys and a foreign key
   r1.X → r2(X): with the view π_{W,Y}, deletes answer by key and both
   insert classes are warehouse-local through proper auxiliary
   projections, so ECA-SM maintains the whole stream without a single
   compensating query. The generator preserves referential integrity the
   way a source transaction would: r1 inserts reference a live r2 key,
   r2 deletes only remove unreferenced rows.

   The adversarial family is the same join with every scrap of metadata
   stripped and every column referenced by the view: each candidate
   auxiliary view degenerates to a full base copy, the analyzer honestly
   reports every class Remote, and ECA-SM refuses. *)

let selfmaint_r2 = R.Schema.of_names ~key:[ "X" ] "r2" [ "X"; "Y"; "B" ]

let selfmaint_r1 =
  R.Schema.of_names ~key:[ "W" ]
    ~fks:[ { R.Schema.fk_cols = [ "X" ]; fk_ref = "r2"; fk_ref_cols = [ "X" ] } ]
    "r1" [ "W"; "X"; "A" ]

(* FK target first: [Db.add_relation] validates references on the way in. *)
let selfmaint_schemas = [ selfmaint_r2; selfmaint_r1 ]

let selfmaint_db (spec : Spec.t) =
  let vr = spec.Spec.value_range in
  let db =
    List.fold_left
      (fun db s -> R.Db.add_relation db s)
      R.Db.empty selfmaint_schemas
  in
  let st = Random.State.make [| spec.Spec.seed |] in
  let db = ref db in
  for x = 0 to spec.Spec.c - 1 do
    db :=
      R.Db.apply !db
        (R.Update.insert "r2"
           (R.Tuple.ints [ x; rand_below st vr; rand_below st 4 ]))
  done;
  for w = 0 to spec.Spec.c - 1 do
    db :=
      R.Db.apply !db
        (R.Update.insert "r1"
           (R.Tuple.ints [ w; rand_below st spec.Spec.c; rand_below st 4 ]))
  done;
  !db

(* Read an integer key column, failing loudly (with the relation and
   column implicated) instead of crashing on string-keyed schemas. *)
let int_at ~rel ~col t i =
  match R.Tuple.get t i with
  | R.Value.Int n -> n
  | v ->
    invalid_arg
      (Printf.sprintf
         "Generator.int_at: %s.%s holds %s where an integer key is required"
         rel col (R.Value.to_string v))

let selfmaint_updates (spec : Spec.t) ~db =
  let vr = spec.Spec.value_range in
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let next_w = ref spec.Spec.c and next_x = ref spec.Spec.c in
  let live_r2_key db =
    Option.map
      (fun t -> int_at ~rel:"r2" ~col:"X" t 0)
      (pick_existing st db "r2")
  in
  let insert_r2 () =
    let x = !next_x in
    incr next_x;
    R.Update.insert "r2" (R.Tuple.ints [ x; rand_below st vr; rand_below st 4 ])
  in
  let insert_r1 db =
    match live_r2_key db with
    | None -> insert_r2 ()  (* no partner to reference yet *)
    | Some x ->
      let w = !next_w in
      incr next_w;
      R.Update.insert "r1" (R.Tuple.ints [ w; x; rand_below st 4 ])
  in
  let unreferenced_r2 db =
    let referenced = Hashtbl.create 256 in
    R.Bag.iter
      (fun t _ -> Hashtbl.replace referenced (int_at ~rel:"r1" ~col:"X" t 1) ())
      (R.Db.contents db "r1");
    let free =
      R.Db.fold_sorted
        (fun t _ acc ->
          if Hashtbl.mem referenced (int_at ~rel:"r2" ~col:"X" t 0) then acc else t :: acc)
        db "r2" []
      |> List.rev |> Array.of_list
    in
    (* One [rand_below] over the candidates in canonical order. *)
    if Array.length free = 0 then None
    else Some free.(rand_below st (Array.length free))
  in
  let rec go db acc i =
    if i >= spec.Spec.k_updates then List.rev acc
    else begin
      let is_insert = Random.State.float st 1.0 < spec.Spec.insert_ratio in
      let u =
        match (rand_below st 2 = 0, is_insert) with
        | true, true -> insert_r1 db
        | false, true -> insert_r2 ()
        | true, false -> (
          match pick_existing st db "r1" with
          | Some t -> R.Update.delete "r1" t
          | None -> insert_r1 db)
        | false, false -> (
          match unreferenced_r2 db with
          | Some t -> R.Update.delete "r2" t
          | None -> insert_r2 ())
      in
      go (R.Db.apply db u) (u :: acc) (i + 1)
    end
  in
  go db [] 0

let adversarial_r1 = R.Schema.of_names "r1" [ "W"; "X" ]
let adversarial_r2 = R.Schema.of_names "r2" [ "X"; "Y" ]
let adversarial_schemas = [ adversarial_r1; adversarial_r2 ]

let adversarial_db (spec : Spec.t) =
  let dom = Spec.join_domain spec in
  let vr = spec.Spec.value_range in
  let db =
    List.fold_left
      (fun db s -> R.Db.add_relation db s)
      R.Db.empty adversarial_schemas
  in
  let st = Random.State.make [| spec.Spec.seed |] in
  let db = ref db in
  for _ = 1 to spec.Spec.c do
    db :=
      R.Db.apply !db
        (R.Update.insert "r1" (R.Tuple.ints [ rand_below st vr; rand_below st dom ]))
  done;
  for _ = 1 to spec.Spec.c do
    db :=
      R.Db.apply !db
        (R.Update.insert "r2" (R.Tuple.ints [ rand_below st dom; rand_below st vr ]))
  done;
  !db

let adversarial_updates (spec : Spec.t) ~db =
  let dom = Spec.join_domain spec in
  let vr = spec.Spec.value_range in
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let fresh_insert rel =
    let t =
      if String.equal rel "r1" then
        R.Tuple.ints [ rand_below st vr; rand_below st dom ]
      else R.Tuple.ints [ rand_below st dom; rand_below st vr ]
    in
    R.Update.insert rel t
  in
  let rec go db acc i =
    if i >= spec.Spec.k_updates then List.rev acc
    else begin
      let rel = if rand_below st 2 = 0 then "r1" else "r2" in
      let is_insert = Random.State.float st 1.0 < spec.Spec.insert_ratio in
      let u =
        if is_insert then fresh_insert rel
        else
          match pick_existing st db rel with
          | Some t -> R.Update.delete rel t
          | None -> fresh_insert rel
      in
      go (R.Db.apply db u) (u :: acc) (i + 1)
    end
  in
  go db [] 0
