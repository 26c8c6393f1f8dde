(* Access paths: the database's column indexes and the keyed view
   structure behind local key-deletes (DESIGN.md §4m).

   Each index answer is checked against a scan of the same contents —
   the scans below are the reference, never the code under test: probes
   and statistics after random update / set_contents / add_tuple /
   schema-change sequences (on every version the sequence produced, not
   just the last), key, foreign-key and strict-delete rejections in
   [Db.apply], keyed key-deletes against [Mview.key_delete], and probes
   racing to build the same index from two domains. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Column indexes                                                      *)
(* ------------------------------------------------------------------ *)

let p_schema = R.Schema.of_names ~key:[ "K" ] "p" [ "K"; "V" ]

let q_schema =
  R.Schema.of_names
    ~fks:[ { R.Schema.fk_cols = [ "F" ]; fk_ref = "p"; fk_ref_cols = [ "K" ] } ]
    "q" [ "F"; "W" ]

(* Past 2^53 several Ints round to one Float: an Int key there meets a
   Float probe only through the index's window of Int keys around it. *)
let big = 1 lsl 53

(* Ints and the Floats equal to them, so key checks ([Value.equal]) and
   equi-join probes ([compare_for_predicate]) differ; negative Ints,
   whose keys sit left of the sign bit in the index's trie; Ints past
   2^53 probed by the Floats they round to; and Strs, the index's other
   keys. *)
let probe_values =
  List.concat_map
    (fun n -> [ R.Value.Int n; R.Value.Float (float_of_int n) ])
    [ 0; 1; 2; 3; 40; -1; -3; -40 ]
  @ List.map
      (fun f -> R.Value.Float f)
      [ 2.5; 0x1p53; 0x1p53 +. 2.0; 0x1p53 +. 4.0; -0x1p53; -0x1p53 -. 4.0 ]
  @ [ R.Value.Int (big + 1); R.Value.Str "x"; R.Value.Str "1" ]

(* Ints of both signs and past 2^53, the Floats equal to the small ones,
   2.5 and Strs. *)
let mixed_of n = function
  | 0 -> R.Value.Int n
  | 1 -> R.Value.Float (float_of_int n)
  | 2 -> R.Value.Float 2.5
  | 3 -> R.Value.Int (-n)
  | 4 -> R.Value.Int (big + n)
  | 5 -> R.Value.Int (-big - n)
  | _ -> R.Value.Str (string_of_int n)

let mixed_gen =
  QCheck.Gen.(
    let* n = int_bound 4 in
    map (mixed_of n) (int_bound 6))

(* Keys of both signs. *)
let p_tuple =
  QCheck.Gen.(
    let* k = int_range (-30) 29 in
    let* v = mixed_gen in
    return [| R.Value.Int k; v |])

let q_tuple =
  QCheck.Gen.(
    let* f = int_range (-35) 34 in
    let* w = mixed_gen in
    return [| R.Value.Int f; w |])

type op =
  | Insert of string * R.Tuple.t
  | Delete_nth of string * int  (* the n-th present tuple, canonical order *)
  | Delete_any of string * R.Tuple.t
  | Delete_strict of string * R.Tuple.t  (* rejected unless a positive copy exists *)
  | Add_tuple of string * R.Tuple.t * int
  | Set_contents of string * R.Bag.t
  | Evolve_round_trip  (* add a column to q, then drop it again *)

let op_to_string = function
  | Insert (r, t) -> Printf.sprintf "insert %s %s" r (R.Tuple.to_string t)
  | Delete_nth (r, n) -> Printf.sprintf "delete %s #%d" r n
  | Delete_any (r, t) -> Printf.sprintf "delete %s %s" r (R.Tuple.to_string t)
  | Delete_strict (r, t) -> Printf.sprintf "strict delete %s %s" r (R.Tuple.to_string t)
  | Add_tuple (r, t, n) -> Printf.sprintf "add_tuple %s %s %+d" r (R.Tuple.to_string t) n
  | Set_contents (r, b) -> Printf.sprintf "set_contents %s %s" r (R.Bag.to_string b)
  | Evolve_round_trip -> "evolve q +col -col"

let op_gen =
  QCheck.Gen.(
    let* rel = oneofl [ "p"; "q" ] in
    let tuple = if rel = "p" then p_tuple else q_tuple in
    frequency
      [
        (10, map (fun t -> Insert (rel, t)) tuple);
        (5, map (fun n -> Delete_nth (rel, n)) (int_bound 80));
        (1, map (fun t -> Delete_any (rel, t)) tuple);
        (2, map (fun t -> Delete_strict (rel, t)) tuple);
        ( 1,
          map2 (fun t n -> Add_tuple (rel, t, n)) tuple
            (oneofl [ -2; -1; 1; 2 ]) );
        ( 1,
          let* rows = list_size (int_bound 40) (pair tuple (int_range (-1) 2)) in
          return
            (Set_contents
               ( rel,
                 List.fold_left
                   (fun b (t, count) -> R.Bag.add ~count t b)
                   R.Bag.empty rows )) );
        (1, return Evolve_round_trip);
      ])

(* --- scan references ------------------------------------------------- *)

(* [Db.probe]'s matches as a sorted tuple list, to compare with a scan. *)
let matching db rel col =
  let probe = R.Db.probe db rel col in
  fun v ->
    let acc = ref [] in
    probe v (fun t _ -> acc := t :: !acc);
    List.sort R.Tuple.compare !acc

let present db rel keep =
  R.Bag.fold
    (fun t _ acc -> if keep t then t :: acc else acc)
    (R.Db.contents db rel) []
  |> List.sort R.Tuple.compare

let ref_distinct db rel col =
  let seen = Hashtbl.create 16 in
  R.Bag.iter
    (fun t n -> if n > 0 then Hashtbl.replace seen (R.Tuple.get t col) ())
    (R.Db.contents db rel);
  Hashtbl.length seen

let positive_match db rel pairs =
  R.Bag.fold
    (fun t n acc ->
      acc
      || n > 0
         && List.for_all (fun (i, v) -> R.Value.equal (R.Tuple.get t i) v) pairs)
    (R.Db.contents db rel) false

let positive_copy db rel t =
  R.Bag.fold (fun t' n acc -> acc || (n > 0 && R.Tuple.equal t t')) (R.Db.contents db rel) false

(* Would [Db.apply] reject inserting [t] into [rel]? *)
let ref_rejects db rel t =
  let schema = R.Db.schema db rel in
  let key_clash =
    match R.Schema.key_positions schema with
    | [] -> false
    | ks -> positive_match db rel (List.map (fun i -> (i, R.Tuple.get t i)) ks)
  in
  let dangling =
    List.exists
      (fun (fk : R.Schema.fk) ->
        R.Db.mem db fk.R.Schema.fk_ref
        &&
        let target = R.Db.schema db fk.R.Schema.fk_ref in
        let pairs =
          List.map2
            (fun c rc ->
              ( Option.get (R.Schema.column_index target rc),
                R.Tuple.get t (Option.get (R.Schema.column_index schema c)) ))
            fk.R.Schema.fk_cols fk.R.Schema.fk_ref_cols
        in
        not (positive_match db fk.R.Schema.fk_ref pairs))
      schema.R.Schema.fks
  in
  key_clash || dangling

(* The positively counted tuples, each repeated by its count, in
   canonical order: the ranks [Db.nth] draws from. *)
let ranked bag =
  List.concat_map
    (fun (t, n) -> if n > 0 then List.init n (fun _ -> t) else [])
    (R.Bag.to_counted_list bag)

(* [Db.fold_sorted] walks [Bag.to_counted_list]'s order, and [Db.nth]
   draws its first, middle and last ranks and the ones just outside. *)
let sorted_agree db rel =
  let bag = R.Db.contents db rel in
  let expected = Array.of_list (ranked bag) in
  let total = Array.length expected in
  List.equal
    (fun (t, n) (t', n') -> R.Tuple.equal t t' && n = n')
    (List.rev (R.Db.fold_sorted (fun t n acc -> (t, n) :: acc) db rel []))
    (R.Bag.to_counted_list bag)
  && List.for_all
       (fun k ->
         Option.equal R.Tuple.equal (R.Db.nth db rel k)
           (if k < 0 || k >= total then None else Some expected.(k)))
       [ -1; 0; total / 2; total - 1; total ]

(* Every index-backed answer of [rels] in [db] equals its scan. *)
let indexes_agree rels db =
  List.for_all
    (fun rel ->
      R.Db.cardinality db rel = R.Bag.net_cardinality (R.Db.contents db rel)
      && sorted_agree db rel
      && List.for_all
           (fun col ->
             let matching = matching db rel col in
             R.Db.distinct_values db rel col = ref_distinct db rel col
             && List.for_all
                  (fun v ->
                    List.equal R.Tuple.equal (matching v)
                      (present db rel (fun t ->
                           R.Value.compare_for_predicate (R.Tuple.get t col) v = 0)))
                  probe_values)
           [ 0; 1 ])
    rels

let add_w =
  R.Update.Add_column { rel = "q"; col = "Extra"; ty = R.Value.Tint; default = R.Value.Int 0 }

let drop_w = R.Update.Drop_column { rel = "q"; col = "Extra" }

(* One step: the new database, or [None] when the step was (correctly)
   rejected. Fails the property when a rejection disagrees with the scan
   reference. *)
let step db op =
  let apply ?(strict = false) u expect_reject =
    match R.Db.apply ~strict db u with
    | db' ->
      if expect_reject then QCheck.Test.fail_reportf "accepted %s" (op_to_string op);
      Some db'
    | exception R.Db.Db_error _ ->
      if not expect_reject then QCheck.Test.fail_reportf "rejected %s" (op_to_string op);
      None
  in
  match op with
  | Insert (rel, t) -> apply (R.Update.insert rel t) (ref_rejects db rel t)
  | Delete_any (rel, t) -> apply (R.Update.delete rel t) false
  | Delete_strict (rel, t) ->
    apply ~strict:true (R.Update.delete rel t) (not (positive_copy db rel t))
  | Delete_nth (rel, n) -> (
    match present db rel (fun _ -> true) with
    | [] -> None
    | ts -> apply (R.Update.delete rel (List.nth ts (n mod List.length ts))) false)
  | Add_tuple (rel, t, count) -> Some (R.Db.add_tuple ~count db rel t)
  | Set_contents (rel, b) -> Some (R.Db.set_contents db rel b)
  | Evolve_round_trip -> (
    match R.Evolve.db (R.Evolve.db db add_w) drop_w with
    | db' -> Some db'
    | exception R.Evolve.Evolve_error _ -> None)

(* Starting contents past the size below which relations are scanned,
   so the sequences exercise built indexes as well as the scans. *)
let mixed k = mixed_of (k mod 5) (k mod 7)

let seed_p = R.Bag.of_list (List.init 40 (fun k -> [| R.Value.Int (k - 20); mixed k |]))

let seed_q =
  R.Bag.of_list
    (List.init 40 (fun k -> [| R.Value.Int ((k * 7 mod 40) - 20); mixed (k + 1) |]))

let db_index_prop =
  QCheck.Test.make ~name:"index lookups, statistics and key/FK checks = scans"
    ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map op_to_string ops))
       QCheck.Gen.(list_size (int_range 60 160) op_gen))
    (fun ops ->
      let db0 = R.Db.of_list [ (p_schema, seed_p); (q_schema, seed_q) ] in
      let versions =
        List.fold_left
          (fun (db, acc) op ->
            match step db op with
            | Some db' ->
              if not (indexes_agree [ "p"; "q" ] db') then
                QCheck.Test.fail_reportf "index disagrees after %s" (op_to_string op);
              (db', db' :: acc)
            | None -> (db, acc))
          (db0, [ db0 ]) ops
        |> snd
      in
      (* Later versions built and carried indexes forward; the earlier
         ones they derive from must still answer for their own contents. *)
      List.for_all (indexes_agree [ "p"; "q" ]) versions)

(* Two domains race to build the same indexes of one shared database:
   every answer equals the scan, whichever domain published first. *)
let racing_domains () =
  let bag =
    R.Bag.of_list
      (List.init 200 (fun k -> [| R.Value.Int k; R.Value.Int (k mod 7) |]))
  in
  for _ = 1 to 20 do
    let db = R.Db.of_list [ (p_schema, bag) ] in
    let probe () =
      List.concat_map
        (fun col -> List.map (matching db "p" col) probe_values)
        [ 1; 0 ]
    in
    let other = Domain.spawn probe in
    let mine = probe () in
    let theirs = Domain.join other in
    Alcotest.(check bool) "same answers on both domains" true
      (List.equal (List.equal R.Tuple.equal) mine theirs);
    Alcotest.(check bool) "answers equal the scan" true (indexes_agree [ "p" ] db)
  done

(* Past 2^53 several ints round to one float, and an Int key meets every
   Float its conversion rounds to — up to max_int, whose conversion is
   2^62. The indexed answers still equal the scan. *)
let float_precision_edge () =
  let ints_around c = List.init 40 (fun k -> c - 20 + k) in
  List.iter
    (fun (c, floats) ->
      let bag =
        R.Bag.of_list
          (List.map (fun k -> [| R.Value.Int k; R.Value.Int 0 |]) (ints_around c))
      in
      let db = R.Db.of_list [ (p_schema, bag) ] in
      let matching = matching db "p" 0 in
      List.iter
        (fun v ->
          Alcotest.(check (list tuple_testable))
            (R.Value.to_string v)
            (present db "p" (fun t ->
                 R.Value.compare_for_predicate (R.Tuple.get t 0) v = 0))
            (matching v))
        (List.map (fun f -> R.Value.Float f) floats))
    [
      (1 lsl 53, [ 0x1p53; 0x1p53 +. 2.0; 0x1p53 -. 1.0 ]);
      (max_int - 19, [ 0x1p62; 0x1p62 -. 1024.0; 0x1p63 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Rank draws                                                          *)
(* ------------------------------------------------------------------ *)

let n_schema = R.Schema.of_names "n" [ "A"; "B" ]

(* Column 0 mixes Ints of both signs and past ±2^53, the Floats equal
   to the small ones, 2.5, NaN and Strs: distinct values under
   [Value.compare], whose order the index walks. *)
let n_tuple =
  QCheck.Gen.(
    let* a = int_bound 24 in
    let* kind = int_bound 9 in
    let* b = int_bound 3 in
    let v =
      match kind with
      | 0 | 1 -> R.Value.Int a
      | 2 -> R.Value.Int (-a)
      | 3 | 4 -> R.Value.Float (float_of_int a)
      | 5 -> R.Value.Float 2.5
      | 6 -> R.Value.Float Float.nan
      | 7 -> R.Value.Int (big + (a mod 5))
      | 8 -> R.Value.Int (-big - (a mod 5))
      | _ -> R.Value.Str (string_of_int (a mod 5))
    in
    return [| v; R.Value.Int b |])

(* [bag]'s relation twice: as loaded (indexed by the first [nth] if it
   has [scan_below] distinct tuples), and with its column-0 index built
   on 40 padding tuples that are then removed again, so even a small
   relation is read through a carried-forward index. *)
let nth_dbs bag =
  let loaded = R.Db.set_contents (R.Db.of_list [ (n_schema, R.Bag.empty) ]) "n" bag in
  let pad = List.init 40 (fun i -> [| R.Value.Str "pad"; R.Value.Int i |]) in
  let padded =
    R.Db.set_contents loaded "n" (List.fold_left (fun b t -> R.Bag.add t b) bag pad)
  in
  R.Db.probe padded "n" 0 (R.Value.Int 0) (fun _ _ -> ());
  (loaded, List.fold_left (fun db t -> R.Db.add_tuple ~count:(-1) db "n" t) padded pad)

let nth_prop =
  QCheck.Test.make ~name:"Db.nth, fold_sorted, distinct_values = references" ~count:300
    (QCheck.make ~print:R.Bag.to_string
       QCheck.Gen.(
         let* sets = bool in
         let* rows =
           list_size (int_bound 70)
             (pair n_tuple (if sets then return 1 else int_range (-1) 3))
         in
         return
           (List.fold_left (fun b (t, count) -> R.Bag.add ~count t b) R.Bag.empty rows)))
    (fun bag ->
      let expected = ranked bag in
      let total = List.length expected in
      let loaded, indexed = nth_dbs bag in
      List.for_all
        (fun db ->
          (* NaN and the Int/Float pairs put [distinct_values]' equality
             to the test as well. *)
          R.Db.distinct_values db "n" 0 = ref_distinct db "n" 0
          && List.equal
            (fun (t, n) (t', n') -> R.Tuple.equal t t' && n = n')
            (List.rev (R.Db.fold_sorted (fun t n acc -> (t, n) :: acc) db "n" []))
            (R.Bag.to_counted_list bag)
          && List.for_all
               (fun k ->
                 Option.equal R.Tuple.equal (R.Db.nth db "n" k)
                   (if k < 0 then None else List.nth_opt expected k))
               (List.init (total + 3) (fun k -> k - 1)))
        [ loaded; indexed ])

(* A set under [scan_below] has no index, and [Db.nth] selects its rank
   from the set's tuples: every rank of random small sets, against the
   sorted tuples. *)
let nth_select_prop =
  QCheck.Test.make ~name:"Db.nth on a small set = the sorted rank, every k" ~count:300
    (QCheck.make ~print:R.Bag.to_string
       QCheck.Gen.(
         let* rows = list_size (int_bound (2 * R.Db.scan_below)) n_tuple in
         return
           (List.fold_left
              (fun b t ->
                if R.Bag.distinct_cardinality b < R.Db.scan_below - 1 then
                  R.Bag.add_if_absent t b
                else b)
              R.Bag.empty rows)))
    (fun bag ->
      let db = R.Db.set_contents (R.Db.of_list [ (n_schema, R.Bag.empty) ]) "n" bag in
      let sorted = Array.of_list (List.map fst (R.Bag.to_counted_list bag)) in
      let total = Array.length sorted in
      List.for_all
        (fun k ->
          Option.equal R.Tuple.equal (R.Db.nth db "n" k)
            (if k < total then Some sorted.(k) else None))
        (List.init (total + 1) Fun.id))

(* ------------------------------------------------------------------ *)
(* Counted probes                                                      *)
(* ------------------------------------------------------------------ *)

(* [Db.probe] hands each match with its count: sorted, its pairs are the
   counted list filtered by equi-join equality. Sets, counts of 2,
   negative counts, Int/Float keys, NaN and the empty relation, each
   probed through a scan (under [scan_below]), a built index, and an
   index carried down to a small relation. *)
let probe_prop =
  QCheck.Test.make ~name:"Db.probe's counted matches = filtered counted list" ~count:300
    (QCheck.make ~print:R.Bag.to_string
       QCheck.Gen.(
         let* sets = bool in
         let* size = frequency [ (1, return 0); (8, int_bound 70) ] in
         let* rows =
           list_repeat size (pair n_tuple (if sets then return 1 else int_range (-1) 2))
         in
         return
           (List.fold_left (fun b (t, count) -> R.Bag.add ~count t b) R.Bag.empty rows)))
    (fun bag ->
      let counted = R.Bag.to_counted_list bag in
      let pairs_equal =
        List.equal (fun (t, n) (t', n') -> R.Tuple.equal t t' && n = n')
      in
      let loaded, indexed = nth_dbs bag in
      List.for_all
        (fun db ->
          List.for_all
            (fun col ->
              let probe = R.Db.probe db "n" col in
              let values =
                [ R.Value.Int 0; R.Value.Float 0.0; R.Value.Float 2.5;
                  R.Value.Float Float.nan; R.Value.Int 99; R.Value.Str "x";
                  R.Value.Float (-3.0); R.Value.Float 0x1p53;
                  R.Value.Float (0x1p53 +. 4.0); R.Value.Float (-0x1p53);
                  R.Value.Float (-0x1p53 -. 4.0) ]
                @ List.map (fun (t, _) -> R.Tuple.get t col) counted
              in
              List.for_all
                (fun v ->
                  let got = ref [] in
                  probe v (fun t n -> got := (t, n) :: !got);
                  pairs_equal
                    (List.sort (fun (a, _) (b, _) -> R.Tuple.compare a b) !got)
                    (List.filter
                       (fun (t, _) ->
                         R.Value.compare_for_predicate (R.Tuple.get t col) v = 0)
                       counted))
                values)
            [ 0; 1 ])
        [ loaded; indexed ])

(* ------------------------------------------------------------------ *)
(* Keyed key-delete                                                    *)
(* ------------------------------------------------------------------ *)

(* Both declared keys projected (ECAK-eligible), plus the join column. *)
let keyed_view =
  R.View.natural_join ~name:"KV"
    ~proj:
      [ R.Attr.qualified "r1" "W"; R.Attr.qualified "r2" "Y"; R.Attr.qualified "r1" "X" ]
    [ r1_wkey; r2_ykey ]

let view_tuple =
  QCheck.Gen.(
    map R.Tuple.ints
      (flatten_l [ int_bound 9; int_bound 9; int_bound 3 ]))

let signed_bag ?(max = 12) ~lo () =
  QCheck.Gen.(
    let* rows = list_size (int_bound max) (pair view_tuple (int_range lo 2)) in
    return
      (List.fold_left (fun b (t, count) -> R.Bag.add ~count t b) R.Bag.empty rows))

type kop =
  | Plus of R.Bag.t
  | Key_delete of string * R.Tuple.t
  | Add_dedup of R.Bag.t

let kop_to_string = function
  | Plus b -> "plus " ^ R.Bag.to_string b
  | Key_delete (r, t) -> Printf.sprintf "key_delete %s %s" r (R.Tuple.to_string t)
  | Add_dedup b -> "add_dedup " ^ R.Bag.to_string b

let kop_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun b -> Plus b) (signed_bag ~lo:(-2) ()));
        ( 4,
          let* r1 = bool in
          let* a = int_bound 9 in
          let* x = int_bound 3 in
          return
            (if r1 then Key_delete ("r1", R.Tuple.ints [ a; x ])
             else Key_delete ("r2", R.Tuple.ints [ x; a ])) );
        (2, map (fun b -> Add_dedup b) (signed_bag ~lo:(-1) ()));
      ])

let ref_add_dedup mv answer =
  R.Bag.fold
    (fun t n acc -> if n > 0 && not (R.Bag.mem t acc) then R.Bag.add t acc else acc)
    answer mv

(* Runs [ops] on the keyed view [k], built from [init], against the
   references: [Mview.key_delete]'s scan, a [mem] + [add] accumulation
   and [Bag.plus]. Each step's contents, change flag and the earlier
   [bag] snapshot are checked. *)
let keyed_agrees k init ops =
  let _ =
    List.fold_left
      (fun reference op ->
        let snapshot = Core.Mview.Keyed.bag k in
        let reference', changed =
          match op with
          | Plus d ->
            Core.Mview.Keyed.plus k d;
            (R.Bag.plus reference d, None)
          | Key_delete (rel, t) ->
            let changed = Core.Mview.Keyed.key_delete k ~rel t in
            (Core.Mview.key_delete ~view:keyed_view ~rel t reference, Some changed)
          | Add_dedup a ->
            let changed = Core.Mview.Keyed.add_dedup k a in
            (ref_add_dedup reference a, Some changed)
        in
        if not (R.Bag.equal (Core.Mview.Keyed.bag k) reference') then
          QCheck.Test.fail_reportf "after %s: keyed %s, scan %s" (kop_to_string op)
            (R.Bag.to_string (Core.Mview.Keyed.bag k))
            (R.Bag.to_string reference');
        if not (R.Bag.equal snapshot reference) then
          QCheck.Test.fail_reportf "%s changed an earlier [bag] snapshot"
            (kop_to_string op);
        (match changed with
        | Some c when c = R.Bag.equal reference' reference ->
          QCheck.Test.fail_reportf "%s: wrong change flag" (kop_to_string op)
        | _ -> ());
        reference')
      init ops
  in
  true

let print_kops (b, ops) = String.concat "\n" (R.Bag.to_string b :: List.map kop_to_string ops)

let keyed_prop =
  QCheck.Test.make ~name:"keyed key-delete = scan key-delete" ~count:300
    (QCheck.make ~print:print_kops
       QCheck.Gen.(pair (signed_bag ~max:60 ~lo:1 ()) (list_size (int_range 1 30) kop_gen)))
    (fun (init, ops) ->
      keyed_agrees (Core.Mview.Keyed.create ~view:keyed_view ~rels:[ "r1"; "r2" ] init) init ops)

(* The same with the key tables built: the view starts with at least
   [scan_below] distinct tuples, and the first operation is a key-delete
   on one of its two keyed relations, which builds both tables; every
   later key-delete is a table lookup. *)
let keyed_tables_prop =
  let filler =
    R.Bag.of_list (List.init R.Db.scan_below (fun i -> R.Tuple.ints [ i mod 10; i / 10; i mod 4 ]))
  in
  QCheck.Test.make ~name:"keyed key-delete, add_dedup = references, tables built" ~count:300
    (QCheck.make ~print:print_kops
       QCheck.Gen.(
         let* extra = signed_bag ~max:40 ~lo:1 () in
         let* first = kop_gen in
         let* ops = list_size (int_range 1 40) kop_gen in
         let first =
           match first with
           | Key_delete _ -> first
           | Plus _ | Add_dedup _ -> Key_delete ("r2", R.Tuple.ints [ 0; 0 ])
         in
         return (R.Bag.dedup_to_set (R.Bag.plus filler extra), first :: ops)))
    (fun (init, ops) ->
      keyed_agrees (Core.Mview.Keyed.create ~view:keyed_view ~rels:[ "r1"; "r2" ] init) init ops)

let keyed_rejects_unindexed () =
  let k = Core.Mview.Keyed.create ~view:keyed_view ~rels:[ "r1" ] R.Bag.empty in
  Alcotest.check_raises "unindexed relation"
    (Core.Mview.Mview_error "Keyed.key_delete: no key index for r2") (fun () ->
      ignore (Core.Mview.Keyed.key_delete k ~rel:"r2" (R.Tuple.ints [ 1; 2 ])));
  let unkeyed = R.View.natural_join ~name:"U" ~proj:[ R.Attr.qualified "r1" "X" ] [ r1; r2 ] in
  match Core.Mview.Keyed.create ~view:unkeyed ~rels:[ "r1" ] R.Bag.empty with
  | _ -> Alcotest.fail "a view without the key projected was indexed"
  | exception Core.Mview.Mview_error _ -> ()

let suite =
  List.map Helpers.qcheck
    [ db_index_prop; nth_prop; nth_select_prop; probe_prop; keyed_prop; keyed_tables_prop ]
  @ [
      Alcotest.test_case "domains racing to build one index" `Quick racing_domains;
      Alcotest.test_case "numeric matches across the float precision edge" `Quick
        float_precision_edge;
      Alcotest.test_case "keyed view rejects unindexed relations" `Quick
        keyed_rejects_unindexed;
    ]
