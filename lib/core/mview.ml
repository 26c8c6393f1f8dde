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
   a map from the view's projected key values to the view tuples (those
   with a nonzero count) carrying them. A key-delete is then one lookup
   instead of a scan, and reports whether it removed anything, so callers
   need no O(|V|) comparison to notice a no-op. The maps are built by the
   first key-delete on a view of at least [Db.scan_below] distinct tuples
   — a smaller view is scanned, which costs less than keeping maps
   current — and maintained from then on. With no keyed relation the structure
   is the bare bag and every operation is the bag's own. *)
module Keyed = struct
  module Kmap = Map.Make (struct
    type t = R.Value.t list

    let compare = List.compare R.Value.compare
  end)

  (* Where one base relation's declared key sits. *)
  type key = {
    rel : string;
    key_positions : int list;  (* in the base relation's tuples *)
    out_positions : int list;  (* in the view's tuples *)
  }

  type t = {
    bag : R.Bag.t;
    keys : key list;
    maps : R.Tuple.t list Kmap.t list option;  (* one per key, once built *)
  }

  let bag k = k.bag

  let view_key key vt = List.map (R.Tuple.get vt) key.out_positions

  let map_add key vt m =
    let kv = view_key key vt in
    Kmap.add kv (vt :: Option.value (Kmap.find_opt kv m) ~default:[]) m

  let map_remove key vt m =
    let kv = view_key key vt in
    match Kmap.find_opt kv m with
    | None -> m
    | Some vts -> (
      match List.filter (fun vt' -> not (R.Tuple.equal vt vt')) vts with
      | [] -> Kmap.remove kv m
      | vts' -> Kmap.add kv vts' m)

  let plain bag = { bag; keys = []; maps = None }

  let create ~view ~rels bag =
    let key rel =
      let key_positions, out_positions = key_layout ~view ~rel in
      { rel; key_positions; out_positions }
    in
    { bag; keys = List.map key rels; maps = None }

  (* Add [n] copies of [vt], keeping built maps on exactly the tuples
     with a nonzero count. *)
  let add k vt n =
    let before, bag = R.Bag.add_get ~count:n vt k.bag in
    match k.maps with
    | None -> { k with bag }
    | Some maps ->
      let after = before + n in
      let maps =
        if before = 0 && after <> 0 then List.map2 (fun key -> map_add key vt) k.keys maps
        else if before <> 0 && after = 0 then
          List.map2 (fun key -> map_remove key vt) k.keys maps
        else maps
      in
      { k with bag; maps = Some maps }

  let plus k delta =
    match k.maps with
    | None -> { k with bag = R.Bag.plus k.bag delta }
    | Some _ -> R.Bag.fold (fun vt n k -> add k vt n) delta k

  let key_delete k ~rel (t : R.Tuple.t) =
    let rec find i = function
      | [] -> error "Keyed.key_delete: no key index for %s" rel
      | key :: rest -> if String.equal key.rel rel then (i, key) else find (i + 1) rest
    in
    let i, key = find 0 k.keys in
    let kv = List.map (R.Tuple.get t) key.key_positions in
    match k.maps with
    | None when R.Bag.distinct_cardinality k.bag < R.Db.scan_below ->
      let bag =
        R.Bag.filter (fun vt -> not (List.equal R.Value.equal (view_key key vt) kv)) k.bag
      in
      if R.Bag.distinct_cardinality bag = R.Bag.distinct_cardinality k.bag then (k, false)
      else ({ k with bag }, true)
    | _ -> (
      let maps =
        match k.maps with
        | Some maps -> maps
        | None ->
          List.map
            (fun key -> R.Bag.fold (fun vt _ m -> map_add key vt m) k.bag Kmap.empty)
            k.keys
      in
      let k = { k with maps = Some maps } in
      match Kmap.find_opt kv (List.nth maps i) with
      | None -> (k, false)
      | Some vts ->
        (List.fold_left (fun k vt -> add k vt (-R.Bag.count k.bag vt)) k vts, true))

  (* ECAK's answer accumulation over a keyed working copy. *)
  let add_dedup k answer =
    R.Bag.fold
      (fun vt n (k, changed) ->
        if n > 0 && not (R.Bag.mem vt k.bag) then (add k vt 1, true)
        else (k, changed))
      answer (k, false)
end
