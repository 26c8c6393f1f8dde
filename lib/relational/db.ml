module Smap = Map.Make (String)
module Vmap = Map.Make (Value)

(* Column indexes. A relation's index on column [i] maps each value of
   that column to the tuples holding it — every tuple with a nonzero
   count, counts staying in the bag. Buckets are sorted by
   [Tuple.compare], so an index's contents, and with them every
   lookup's result, are the same however and whenever it was built.
   [ints]/[floats] count the Int and Float keys, which tells a numeric
   lookup whether the other numeric type can match at all. *)
type index = {
  map : Tuple.t list Vmap.t;
  distinct : int;
  ints : int;
  floats : int;
}

let no_index = { map = Vmap.empty; distinct = 0; ints = 0; floats = 0 }

(* [ix] with key [v] added ([d = 1]), removed ([d = -1]) or neither
   ([d = 0]). *)
let with_key v d map ix =
  match v with
  | Value.Int _ ->
    { map; distinct = ix.distinct + d; ints = ix.ints + d; floats = ix.floats }
  | Value.Float _ ->
    { map; distinct = ix.distinct + d; ints = ix.ints; floats = ix.floats + d }
  | Value.Str _ | Value.Bool _ -> { ix with map; distinct = ix.distinct + d }

let rec insert_sorted t = function
  | [] -> [ t ]
  | t' :: rest as l ->
    if Tuple.compare t t' <= 0 then t :: l else t' :: insert_sorted t rest

(* One [Vmap.update] each; [d] records whether the key came or went. *)
let index_add col t ix =
  let v = Tuple.get t col in
  let d = ref 0 in
  let map =
    Vmap.update v
      (function
        | None ->
          d := 1;
          Some [ t ]
        | Some ts -> Some (insert_sorted t ts))
      ix.map
  in
  with_key v !d map ix

let index_remove col t ix =
  let v = Tuple.get t col in
  let d = ref 0 in
  let map =
    Vmap.update v
      (function
        | None -> None
        | Some ts -> (
          match List.filter (fun t' -> not (Tuple.equal t t')) ts with
          | [] ->
            d := -1;
            None
          | ts' -> Some ts'))
      ix.map
  in
  with_key v !d map ix

(* Group first, sort each bucket once: O(n log n) whatever the column's
   value distribution. *)
let build_index col bag =
  let groups =
    Bag.fold
      (fun t _ m ->
        let v = Tuple.get t col in
        Vmap.add v (t :: Option.value (Vmap.find_opt v m) ~default:[]) m)
      bag Vmap.empty
  in
  Vmap.fold
    (fun v ts ix -> with_key v 1 (Vmap.add v (List.sort Tuple.compare ts) ix.map) ix)
    groups no_index

(* A base relation: its contents, O(1) statistics, and one lazily built
   index per column. The index array is never mutated once published:
   building an index publishes a copy with a compare-and-set, so domains
   sharing one database race only to build the same value, and versions
   derived by [apply] can share the array. [apply] carries built indexes
   forward; [set_contents] and fresh relations start without any. *)
type rel = {
  schema : Schema.t;
  bag : Bag.t;
  card : int;  (* Σ counts *)
  indexes : index option array Atomic.t;
}

type t = {
  relations : rel Smap.t;
}

exception Db_error of string

let error fmt = Format.kasprintf (fun s -> raise (Db_error s)) fmt

let empty = { relations = Smap.empty }

let make_rel schema bag =
  {
    schema;
    bag;
    card = Bag.net_cardinality bag;
    indexes = Atomic.make (Array.make (Schema.arity schema) None);
  }

let index r col =
  let built = Atomic.get r.indexes in
  match built.(col) with
  | Some ix -> ix
  | None ->
    let ix = build_index col r.bag in
    let rec publish built =
      match built.(col) with
      | Some ix' -> ix'
      | None ->
        let built' = Array.copy built in
        built'.(col) <- Some ix;
        if Atomic.compare_and_set r.indexes built built' then ix
        else publish (Atomic.get r.indexes)
    in
    publish built

let bucket ix v = Option.value (Vmap.find_opt v ix.map) ~default:[]

(* Below this many distinct tuples a relation is scanned instead: the
   scan costs less than keeping an index current on every update. *)
let scan_below = 32

let index_opt r col =
  match (Atomic.get r.indexes).(col) with
  | Some _ as ix -> ix
  | None ->
    if Bag.distinct_cardinality r.bag < scan_below then None
    else Some (index r col)

(* Every count is 1: the net cardinality is the distinct count, and no
   count is negative. *)
let is_set r = r.card = Bag.distinct_cardinality r.bag && not (Bag.has_negative r.bag)

(* [r] with [bag], which [Bag.add_get ~count tuple r.bag] returned with
   the tuple's [before] count, carrying every built index forward: an
   index changes only when the tuple appears or disappears. *)
let adjusted r tuple count (before, bag) =
  let after = before + count in
  let update =
    if before = 0 && after <> 0 then Some index_add
    else if before <> 0 && after = 0 then Some index_remove
    else None
  in
  let built = Atomic.get r.indexes in
  {
    r with
    bag;
    card = r.card + count;
    indexes =
      Atomic.make
        (match update with
         | Some f when Array.exists Option.is_some built ->
           Array.mapi (fun col -> Option.map (f col tuple)) built
         | _ -> built);
  }

let adjust r tuple count = adjusted r tuple count (Bag.add_get ~count tuple r.bag)

let find db name =
  match Smap.find_opt name db.relations with
  | Some r -> r
  | None -> error "unknown relation %s" name

(* Does [r] hold a positively counted tuple whose columns at [positions]
   equal [values]? One index probe on the first column, the rest checked
   per candidate; without an index, a walk that stops at the first hit. *)
let exists_match r positions values =
  let agree ps vs t = List.for_all2 (fun p v -> Value.equal (Tuple.get t p) v) ps vs in
  let scan () = Bag.exists (fun t n -> n > 0 && agree positions values t) r.bag in
  match positions, values with
  | p :: ps, v :: vs -> (
    match index_opt r p with
    | Some ix ->
      List.exists (fun t -> Bag.count r.bag t > 0 && agree ps vs t) (bucket ix v)
    | None -> scan ())
  | _ -> scan ()

(* Declared keys are enforced: a base relation may not hold two tuples
   agreeing on all key attributes. ECAK's correctness depends on declared
   keys being real, so lying declarations are rejected at the door. *)
let key_violation r tuple =
  match Schema.key_positions r.schema with
  | [] -> false
  | positions -> exists_match r positions (List.map (Tuple.get tuple) positions)

let check_keys schema bag =
  match Schema.key_positions schema with
  | [] -> ()
  | positions ->
    (* Sorted walk so the offending tuple reported is deterministic. *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (t, n) ->
        let key = List.map (Tuple.get t) positions in
        if n > 1 || Hashtbl.mem seen key then
          error "relation %s: tuple %s violates the declared key"
            schema.Schema.name (Tuple.to_string t);
        Hashtbl.replace seen key ())
      (Bag.to_counted_list bag)

(* Declared foreign keys are enforced on the insert side, like keys: the
   self-maintainability analyzer ([Selfmaint]) derives join partners from
   an inserted tuple *assuming* its FK targets exist, so a source that
   admitted a dangling reference would silently break ECA-SM. Checks only
   fire when both relations live in the same [t]; deletes are not checked
   (classic RESTRICT-free semantics — a later insert referencing the gap
   is rejected at that point instead). *)
let fk_pairs schema (target : Schema.t) (fk : Schema.fk) =
  List.map2
    (fun c rc ->
      match (Schema.column_index schema c, Schema.column_index target rc) with
      | Some i, Some j -> (i, j)
      | _, None ->
        error "foreign key %s -> %s: %s is not a column of %s"
          schema.Schema.name fk.Schema.fk_ref rc fk.Schema.fk_ref
      | None, _ ->
        (* unreachable: Schema.make validated the source columns *)
        error "foreign key %s -> %s: bad source column" schema.Schema.name
          fk.Schema.fk_ref)
    fk.Schema.fk_cols fk.Schema.fk_ref_cols

let fk_satisfied pairs target tuple =
  exists_match target (List.map snd pairs)
    (List.map (fun (i, _) -> Tuple.get tuple i) pairs)

let check_fk_contents db (schema : Schema.t) bag =
  List.iter
    (fun (fk : Schema.fk) ->
      match Smap.find_opt fk.Schema.fk_ref db.relations with
      | None -> ()
      | Some target ->
        let pairs = fk_pairs schema target.schema fk in
        Bag.iter
          (fun t n ->
            if n > 0 && not (fk_satisfied pairs target t) then
              error "relation %s: tuple %s has no match in %s for its foreign key"
                schema.Schema.name (Tuple.to_string t) fk.Schema.fk_ref)
          bag)
    schema.Schema.fks

let add_relation ?(contents = Bag.empty) db schema =
  if Smap.mem schema.Schema.name db.relations then
    error "relation %s already exists" schema.Schema.name;
  Bag.iter (fun t _ -> Schema.check_tuple schema t) contents;
  if Bag.has_negative contents then
    error "base relation %s cannot hold negative counts" schema.Schema.name;
  check_keys schema contents;
  let db' =
    {
      relations =
        Smap.add schema.Schema.name (make_rel schema contents) db.relations;
    }
  in
  check_fk_contents db' schema contents;
  (* Earlier relations may declare FKs into the one just added. *)
  Smap.iter
    (fun name r ->
      if
        (not (String.equal name schema.Schema.name))
        && List.exists
             (fun (fk : Schema.fk) ->
               String.equal fk.Schema.fk_ref schema.Schema.name)
             r.schema.Schema.fks
      then check_fk_contents db' r.schema r.bag)
    db'.relations;
  db'

let of_list l =
  List.fold_left
    (fun db (schema, contents) -> add_relation ~contents db schema)
    empty l

let schema db name = (find db name).schema

let schema_opt db name =
  Option.map (fun r -> r.schema) (Smap.find_opt name db.relations)

let contents db name = (find db name).bag

let mem db name = Smap.mem name db.relations

let relation_names db = List.map fst (Smap.bindings db.relations)

let schemas db = List.map (fun (_, r) -> r.schema) (Smap.bindings db.relations)

let set_contents db name bag =
  let r = find db name in
  Bag.iter (fun t _ -> Schema.check_tuple r.schema t) bag;
  { relations = Smap.add name (make_rel r.schema bag) db.relations }

let add_tuple ?(count = 1) db name tuple =
  let r = find db name in
  Schema.check_tuple r.schema tuple;
  { relations = Smap.add name (adjust r tuple count) db.relations }

let apply ?(strict = true) db (u : Update.t) =
  match Smap.find_opt u.rel db.relations with
  | None -> error "update %s targets unknown relation" (Update.to_string u)
  | Some r ->
    Schema.check_tuple r.schema u.tuple;
    let r' =
      match u.kind with
      | Update.Insert ->
        if key_violation r u.tuple then
          error "insert violates the declared key of %s: %s" u.rel
            (Update.to_string u)
        else begin
          List.iter
            (fun (fk : Schema.fk) ->
              match Smap.find_opt fk.Schema.fk_ref db.relations with
              | None -> ()
              | Some target ->
                if not (fk_satisfied (fk_pairs r.schema target.schema fk) target u.tuple)
                then
                  error "insert has no match in %s for the foreign key of %s: %s"
                    fk.Schema.fk_ref u.rel (Update.to_string u))
            r.schema.Schema.fks;
          adjust r u.tuple 1
        end
      | Update.Delete -> (
        match Bag.add_get ~count:(-1) u.tuple r.bag with
        | before, _ when before <= 0 ->
          if strict then
            error "delete of absent tuple: %s" (Update.to_string u)
          else r (* non-strict: deleting an absent tuple is a no-op *)
        | got -> adjusted r u.tuple (-1) got)
    in
    { relations = Smap.add u.rel r' db.relations }

let apply_all ?strict db us = List.fold_left (fun db u -> apply ?strict db u) db us

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)
(* ------------------------------------------------------------------ *)

let column r name col =
  if col < 0 || col >= Schema.arity r.schema then
    error "relation %s has no column %d" name col

(* Adjacent floats are at most 2^10 apart across the int range, so every
   int whose conversion rounds to [f] lies within 1024 of it. *)
let int_window f =
  let c =
    if f >= 0x1p62 then max_int
    else if f <= -0x1p62 then min_int
    else int_of_float f
  in
  let lo = if c < min_int + 1024 then min_int else c - 1024 in
  let hi = if c > max_int - 1024 then max_int else c + 1024 in
  (lo, hi)

(* [g] of every bucket whose Int key compares equal to the float [f]. *)
let iter_int_partners ix f g =
  if ix.ints = 0 || not (Float.is_integer f) then ()
  else if Float.abs f < 0x1p53 then g (bucket ix (Value.Int (int_of_float f)))
  else
    let lo, hi = int_window f in
    Vmap.to_seq_from (Value.Int lo) ix.map
    |> Seq.take_while (fun (v, _) -> Value.compare v (Value.Int hi) <= 0)
    |> Seq.iter (fun (v, ts) ->
           if Value.compare_for_predicate v (Value.Float f) = 0 then g ts)

(* [f t (count t)] for every tuple [t] of one index bucket. *)
let rec hand f count = function
  | [] -> ()
  | t :: ts ->
    f t (count t);
    hand f count ts

let probe db name col =
  let r = find db name in
  column r name col;
  match index_opt r col with
  | None ->
    (* A small relation: one walk hands each match the count it holds. *)
    fun v f ->
      Bag.iter
        (fun t n -> if Value.compare_for_predicate (Tuple.get t col) v = 0 then f t n)
        r.bag
  | Some ix -> (
    (* A set's counts need no lookup. *)
    let count = if is_set r then fun _ -> 1 else Bag.count r.bag in
    fun v f ->
      hand f count (bucket ix v);
      match v with
      | Value.Int x when ix.floats > 0 -> hand f count (bucket ix (Value.Float (float_of_int x)))
      | Value.Float fl -> iter_int_partners ix fl (hand f count)
      | _ -> ())

let cardinality db name = (find db name).card

let fold_sorted f db name acc =
  let r = find db name in
  match index_opt r 0 with
  | Some ix ->
    (* The column-0 index is already in [Tuple.compare] order: its keys
       in [Value.compare] order, each bucket sorted. A set's counts need
       no lookup. *)
    let count = if is_set r then fun _ -> 1 else Bag.count r.bag in
    Vmap.fold
      (fun _ ts acc -> List.fold_left (fun acc t -> f t (count t) acc) acc ts)
      ix.map acc
  | None -> List.fold_left (fun acc (t, n) -> f t n acc) acc (Bag.to_counted_list r.bag)

let nth db name k =
  let r = find db name in
  let exception Found of Tuple.t in
  if k < 0 then None
  else
    match index_opt r 0 with
    | Some ix when is_set r ->
      (* Whole buckets are skipped by length. *)
      if k >= r.card then None
      else begin
        let rest = ref k in
        match
          Vmap.iter
            (fun _ ts ->
              let n = List.length ts in
              if !rest < n then raise_notrace (Found (List.nth ts !rest));
              rest := !rest - n)
            ix.map
        with
        | () -> None
        | exception Found t -> Some t
      end
    | None when is_set r ->
      (* A small set: its tuples sorted once, each of rank its index. *)
      if k >= r.card then None
      else begin
        let ts = Array.make r.card [||] in
        ignore (Bag.fold (fun t _ i -> ts.(i) <- t; i + 1) r.bag 0);
        Array.sort Tuple.compare ts;
        Some ts.(k)
      end
    | _ -> (
      match
        fold_sorted
          (fun t n rest ->
            if n <= 0 then rest else if rest < n then raise_notrace (Found t) else rest - n)
          db name k
      with
      | _ -> None
      | exception Found t -> Some t)

(* Is [v] among the first [m] cells of [seen], sorted by [Value.compare]?
   If not, insert it there, keeping them sorted. *)
let insert_distinct seen m v =
  let rec at i = if i < m && Value.compare seen.(i) v < 0 then at (i + 1) else i in
  let i = at 0 in
  if i < m && Value.equal seen.(i) v then m
  else begin
    Array.blit seen i seen (i + 1) (m - i);
    seen.(i) <- v;
    m + 1
  end

let distinct_values db name col =
  let r = find db name in
  column r name col;
  match index_opt r col with
  | Some ix when not (Bag.has_negative r.bag) -> ix.distinct
  | Some ix ->
    (* The index also holds negatively counted tuples: a key counts when
       one of its tuples is positive. *)
    Vmap.fold
      (fun _ ts acc -> if List.exists (fun t -> Bag.count r.bag t > 0) ts then acc + 1 else acc)
      ix.map 0
  | None ->
    (* Under [scan_below] distinct tuples: dedupe into a small sorted
       array rather than a hash table. *)
    let seen = Array.make (Bag.distinct_cardinality r.bag) (Value.Int 0) in
    Bag.fold (fun t n m -> if n > 0 then insert_distinct seen m (Tuple.get t col) else m) r.bag 0

let total_tuples db = Smap.fold (fun _ r acc -> acc + r.card) db.relations 0

let equal a b =
  Smap.equal
    (fun r1 r2 -> Schema.equal r1.schema r2.schema && Bag.equal r1.bag r2.bag)
    a.relations b.relations

let pp ppf db =
  Smap.iter
    (fun _ r -> Format.fprintf ppf "%a = %a@." Schema.pp r.schema Bag.pp r.bag)
    db.relations
