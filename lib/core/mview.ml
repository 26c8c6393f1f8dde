module R = Relational

exception Mview_error of string

let error fmt = Format.kasprintf (fun s -> raise (Mview_error s)) fmt

let apply_delta mv delta = R.Bag.plus mv delta

(* The positions of [rel]'s declared key within its base tuples, and
   within the view's output. *)
let key_layout ~(view : R.View.t) ~rel =
  match (R.View.source_schema view rel, R.View.key_positions view rel) with
  | Some schema, Some out_positions ->
    (R.Schema.key_positions schema, out_positions)
  | _ -> error "view %s does not project the key of %s" view.R.View.name rel

(* key-delete(MV, r, t) (Section 5.4): remove from the view every tuple
   carrying the projected key of the deleted base tuple t. The key
   uniquely identifies t within r, so exactly t's derivations are
   removed — full key coverage of the other relations is not needed for
   this operation, only for ECAK's insert handling. This form scans the
   bag; materialized views use {!Keyed}. *)
let key_delete ~view ~rel t mv =
  let key_positions, out_positions = key_layout ~view ~rel in
  let key = List.map (R.Tuple.get t) key_positions in
  R.Bag.filter
    (fun vt -> not (List.equal R.Value.equal (List.map (R.Tuple.get vt) out_positions) key))
    mv

(* A materialized view with key-delete indexes: per keyed base relation,
   a hash table from the view's projected key values to the view tuples
   (those with a nonzero count) carrying them. A key-delete is then one
   lookup instead of a scan, and reports whether it removed anything, so
   callers need no O(|V|) comparison to notice a no-op. The tables are
   built by the first key-delete on a view of at least [Db.scan_below]
   distinct tuples — a smaller view is scanned, which costs less than
   keeping tables current — and maintained from then on. With no keyed
   relation the structure is the bare bag and every operation is the
   bag's own. The instance owns its tables, so every operation updates
   it in place. *)
module Keyed = struct
  module Ktbl = Hashtbl.Make (struct
    type t = R.Value.t list

    let equal = List.equal R.Value.equal
    let hash = List.fold_left (fun h v -> (h * 31) + R.Value.hash v) 17
  end)

  (* Where one base relation's declared key sits. *)
  type key = {
    rel : string;
    key_positions : int list;  (* in the base relation's tuples *)
    out_positions : int list;  (* in the view's tuples *)
  }

  type t = {
    mutable bag : R.Bag.t;
    keys : key list;
    mutable tables : R.Tuple.t list Ktbl.t list option;  (* one per key, once built *)
  }

  let bag k = k.bag

  let view_key key vt = List.map (R.Tuple.get vt) key.out_positions

  let table_add key vt tbl =
    let kv = view_key key vt in
    Ktbl.replace tbl kv (vt :: Option.value (Ktbl.find_opt tbl kv) ~default:[])

  let table_remove key vt tbl =
    let kv = view_key key vt in
    match Ktbl.find_opt tbl kv with
    | None -> ()
    | Some vts -> (
      match List.filter (fun vt' -> not (R.Tuple.equal vt vt')) vts with
      | [] -> Ktbl.remove tbl kv
      | vts' -> Ktbl.replace tbl kv vts')

  let plain bag = { bag; keys = []; tables = None }

  let create ~view ~rels bag =
    let key rel =
      let key_positions, out_positions = key_layout ~view ~rel in
      { rel; key_positions; out_positions }
    in
    { bag; keys = List.map key rels; tables = None }

  (* Add [n] copies of [vt], keeping built tables on exactly the tuples
     with a nonzero count. *)
  let add k vt n =
    let before, bag = R.Bag.add_get ~count:n vt k.bag in
    k.bag <- bag;
    match k.tables with
    | None -> ()
    | Some tables ->
      let after = before + n in
      if before = 0 && after <> 0 then List.iter2 (fun key -> table_add key vt) k.keys tables
      else if before <> 0 && after = 0 then
        List.iter2 (fun key -> table_remove key vt) k.keys tables

  let plus k delta =
    match k.tables with
    | None -> k.bag <- R.Bag.plus k.bag delta
    | Some _ -> R.Bag.iter (fun vt n -> add k vt n) delta

  let key_delete k ~rel (t : R.Tuple.t) =
    let rec find i = function
      | [] -> error "Keyed.key_delete: no key index for %s" rel
      | key :: rest -> if String.equal key.rel rel then (i, key) else find (i + 1) rest
    in
    let i, key = find 0 k.keys in
    let kv = List.map (R.Tuple.get t) key.key_positions in
    match k.tables with
    | None when R.Bag.distinct_cardinality k.bag < R.Db.scan_below ->
      (* remove just the tuples that carry the key: a path copy each *)
      let carries vt =
        List.for_all2 (fun pos v -> R.Value.equal (R.Tuple.get vt pos) v) key.out_positions kv
      in
      let bag =
        R.Bag.fold
          (fun vt n bag -> if carries vt then R.Bag.add ~count:(-n) vt bag else bag)
          k.bag k.bag
      in
      let changed = bag != k.bag in
      k.bag <- bag;
      changed
    | _ -> (
      let tables =
        match k.tables with
        | Some tables -> tables
        | None ->
          let build key =
            let tbl = Ktbl.create (R.Bag.distinct_cardinality k.bag) in
            R.Bag.iter (fun vt _ -> table_add key vt tbl) k.bag;
            tbl
          in
          let tables = List.map build k.keys in
          k.tables <- Some tables;
          tables
      in
      let probed = List.nth tables i in
      match Ktbl.find_opt probed kv with
      | None -> false
      | Some vts ->
        (* Each tuple leaves the bag in one descent and the other keys'
           tables; the probed key's bucket is dropped whole. *)
        Ktbl.remove probed kv;
        List.iter
          (fun vt ->
            let before, bag = R.Bag.remove_all vt k.bag in
            k.bag <- bag;
            if before <> 0 then
              List.iter2
                (fun key tbl -> if tbl != probed then table_remove key vt tbl)
                k.keys tables)
          vts;
        true)

  (* ECAK's answer accumulation over a keyed working copy: one descent
     per answer tuple, which adds it only where it is absent. *)
  let add_dedup k answer =
    R.Bag.fold
      (fun vt n changed ->
        if n <= 0 then changed
        else
          let bag = R.Bag.add_if_absent vt k.bag in
          if bag == k.bag then changed
          else begin
            k.bag <- bag;
            Option.iter (List.iter2 (fun key -> table_add key vt) k.keys) k.tables;
            true
          end)
      answer false
end
