(* Hash-indexed signed bags.

   The bag is a persistent map from tuple *hash* to that hash's entries:
   nearly always one [(tuple, count)], kept inline in the map's leaf, and
   a small collision bucket otherwise. Dispatching on the precomputed
   integer hash means every lookup/update walks the map testing single
   bits of one int and only runs full [Tuple.equal] at the leaf — O(1)
   expected tuple comparisons per operation, against the former
   [Map.Make (Tuple)] tree that paid a full-tuple comparison at every
   node.

   Iteration order of [fold]/[iter] follows hash order and is therefore
   arbitrary (but deterministic for a given bag). Everything user-facing —
   [pp], [to_list], [to_counted_list], [compare] — sorts by [Tuple.compare]
   first, so printed output, golden files and cross-bag comparisons keep
   the canonical tuple order of the old tree representation. *)

(* The map under the bag: a big-endian Patricia trie over the hash keys,
   ascending signed key order left to right (see {!Patricia}). *)
module Trie = Patricia.Entries

type t = {
  size : int;  (* number of distinct tuples, i.e. total entries *)
  neg : int;  (* entries with a negative count, kept current *)
  fp : int;  (* [fingerprint]: Σ [mix h n] over the entries, kept current *)
  trie : Trie.t;
}

let empty = { size = 0; neg = 0; fp = 0; trie = Trie.Empty }

let is_empty b = b.size = 0

let distinct_cardinality b = b.size

(* One mixed word per entry, summed into the fingerprint: addition
   commutes, so neither bucket order nor the path that built the bag can
   change the sum, and the stored key stands in for the tuple's hash, so
   no tuple is rehashed. The mix is a multiply-xorshift finalizer: a
   linear one would let different counts of different tuples cancel
   out. *)
let mix h n =
  let x = (h + (n * 0x9E3779B9)) * 0xBF58476D1CE4E5B in
  let x = (x lxor (x lsr 29)) * 0x94D049BB133111E in
  x lxor (x lsr 32)

let count b t =
  match Trie.find (Tuple.hash t) b.trie with
  | Leaf { t = t'; n; _ } when Tuple.equal t t' -> n
  | Bucket { es; _ } -> (
    match List.find_opt (fun (t', _) -> Tuple.equal t t') es with
    | Some (_, n) -> n
    | None -> 0)
  | _ -> 0

(* [t]'s count in a collision bucket (0 when absent) and the other
   entries, in their order: [es] itself when [t] is absent. *)
let take t es =
  let rec split acc = function
    | [] -> (0, es)
    | ((t', n) as e) :: rest ->
      if Tuple.equal t t' then (n, List.rev_append acc rest) else split (e :: acc) rest
  in
  split [] es

(* The node of key [h] holding the entries [es], two or more making a
   bucket. *)
let node_of h = function
  | [ (t, n) ] -> Trie.Leaf { k = h; t; n }
  | es -> Trie.Bucket { k = h; es }

(* [t]'s count before adding [count <> 0] copies, and the bag after:
   one hash, one descent. The entry is taken out of its leaf or bucket
   and put back in front with its new count, or left out when that count
   is 0; a bucket left with one entry becomes a leaf. Size, negatives and
   fingerprint change by the entry's before and after contributions (a
   count of 0 contributes nothing). *)
let adjust_at h count t b =
  let before = ref 0 in
  let trie =
    Trie.update h
      (fun node ->
        match node with
        | Leaf { t = t'; n; _ } when Tuple.equal t t' ->
          before := n;
          if n + count = 0 then Empty else Leaf { k = h; t; n = n + count }
        | Leaf { t = t'; n; _ } -> Bucket { k = h; es = [ (t, count); (t', n) ] }
        | Bucket { es; _ } ->
          let n, rest = take t es in
          before := n;
          node_of h (if n + count = 0 then rest else (t, n + count) :: rest)
        | Empty | Branch _ -> Leaf { k = h; t; n = count })
      b.trie
  in
  let n = !before in
  let n' = n + count in
  let present k = if k = 0 then 0 else 1 and negative k = if k < 0 then 1 else 0 in
  let fp = if n = 0 then b.fp else b.fp - mix h n in
  ( n,
    {
      size = b.size - present n + present n';
      neg = b.neg - negative n + negative n';
      fp = (if n' = 0 then fp else fp + mix h n');
      trie;
    } )

let adjust count t b = adjust_at (Tuple.hash t) count t b

let add_get ?count:(c = 1) t b = if c = 0 then (count b t, b) else adjust c t b

let add ?(count = 1) t b = if count = 0 then b else snd (adjust count t b)

(* The entry taken out whole, in one descent: the node [add] builds for
   a count of minus the entry's own, without first looking the count
   up. An absent tuple leaves [b] itself. *)
let remove_all t b =
  let h = Tuple.hash t in
  let before = ref 0 in
  let trie =
    Trie.update h
      (fun node ->
        match node with
        | Leaf { t = t'; n; _ } when Tuple.equal t t' ->
          before := n;
          Empty
        | Bucket { es; _ } -> (
          match take t es with
          | 0, _ -> node
          | n, rest ->
            before := n;
            node_of h rest)
        | Empty | Leaf _ | Branch _ -> node)
      b.trie
  in
  match !before with
  | 0 -> (0, b)
  | n ->
    ( n,
      {
        size = b.size - 1;
        neg = (if n < 0 then b.neg - 1 else b.neg);
        fp = b.fp - mix h n;
        trie;
      } )

(* One copy added where the tuple is absent, in one descent; where it is
   present the descent stops at its node and [b] itself is returned. The
   node built is the one [add] builds. *)
let add_if_absent t b =
  let h = Tuple.hash t in
  let trie =
    Trie.update h
      (fun node ->
        match node with
        | Leaf { t = t'; _ } when Tuple.equal t t' -> node
        | Leaf { t = t'; n; _ } -> Bucket { k = h; es = [ (t, 1); (t', n) ] }
        | Bucket { es; _ } ->
          if List.exists (fun (t', _) -> Tuple.equal t t') es then node
          else Bucket { k = h; es = (t, 1) :: es }
        | Empty | Branch _ -> Leaf { k = h; t; n = 1 })
      b.trie
  in
  if trie == b.trie then b
  else { size = b.size + 1; neg = b.neg; fp = b.fp + mix h 1; trie }

let remove ?(count = 1) t b = add ~count:(-count) t b

let singleton ?count t = add ?count t empty

let of_list ts = List.fold_left (fun b t -> add t b) empty ts

let fold f b acc = Trie.fold f b.trie acc

let iter f b = Trie.iter f b.trie

(* Fold the smaller operand into the larger: counts add commutatively, so
   the result is the same bag either way. Each entry goes in under the
   key its leaf stores, so no tuple is rehashed. *)
let plus a b =
  let small, large = if a.size <= b.size then a, b else b, a in
  Trie.fold_leaves
    (fun h node acc ->
      match node with
      | Leaf { t; n; _ } -> snd (adjust_at h n t acc)
      | Bucket { es; _ } -> List.fold_left (fun acc (t, n) -> snd (adjust_at h n t acc)) acc es
      | Empty | Branch _ -> acc)
    small.trie large

(* Rebuild with a per-entry count transform ([f] returning None drops the
   entry); used by all the mapping/filtering operations below. Size,
   negatives and fingerprint are summed in the same pass. A leaf whose
   count [f] keeps is shared with [b], not copied. *)
let filter_map_counts f b =
  let size = ref 0 and neg = ref 0 and fp = ref 0 in
  (* the entry's new count under key [h], 0 to drop it *)
  let keep h t n =
    match f t n with
    | Some 0 | None -> 0
    | Some n' ->
      incr size;
      if n' < 0 then incr neg;
      fp := !fp + mix h n';
      n'
  in
  let trie =
    Trie.map_leaves
      (fun node ->
        match node with
        | Leaf { k; t; n } -> (
          match keep k t n with
          | 0 -> Empty
          | n' -> if n' = n then node else Leaf { k; t; n = n' })
        | Bucket { k; es } -> (
          match
            List.filter_map
              (fun (t, n) -> match keep k t n with 0 -> None | n' -> Some (t, n'))
              es
          with
          | [] -> Empty
          | [ (t, n) ] -> Leaf { k; t; n }
          | es -> Bucket { k; es })
        | Empty | Branch _ -> node)
      b.trie
  in
  { size = !size; neg = !neg; fp = !fp; trie }

let negate b = filter_map_counts (fun _ n -> Some (-n)) b

let minus a b = plus a (negate b)

let scale k b = if k = 0 then empty else filter_map_counts (fun _ n -> Some (n * k)) b

let apply_sign s b =
  match s with
  | Sign.Pos -> b
  | Sign.Neg -> negate b

let pos_part b = filter_map_counts (fun _ n -> if n > 0 then Some n else None) b

let union a b = plus (pos_part a) (pos_part b)

let cardinality b = fold (fun _ n acc -> acc + abs n) b 0

let net_cardinality b = fold (fun _ n acc -> acc + n) b 0

let has_negative b = b.neg > 0

let is_set b = Trie.for_all (fun _ n -> n = 1) b.trie

let exists p b = Trie.exists p b.trie

(* Equal bags have equal sizes and fingerprints, so a mismatch in
   either rejects without walking. *)
let equal a b = a == b || (a.size = b.size && a.fp = b.fp && Trie.equal a.trie b.trie)

exception Over_budget

(* Given [equal a0 b0], [a] and [b] agree wherever [a] agrees with [a0]
   and [b] with [b0], so only the keys that changed along either side
   need comparing. The changes are found by diffing the tries, which
   skips the subtries each side still shares with its ancestor; a diff
   that visits more than about a quarter of the trie's nodes (a bag of
   [n] entries has [2n - 1] of them) gives way to the full [equal]. *)
let equal_since (a0, b0) a b =
  a == b
  || a.size = b.size && a.fp = b.fp
     &&
     let budget = ref (a.size / 2) in
     let tick () =
       decr budget;
       if !budget < 0 then raise_notrace Over_budget
     in
     match
       (Trie.changed ~tick a0.trie a.trie [], Trie.changed ~tick b0.trie b.trie [])
     with
     | exception Over_budget -> equal a b
     | changes_a, changes_b ->
       (* both lists descend by key: merge them, looking a key up only
          where one side changed it and the other did not *)
       let same = Trie.entries_equal and find h b = Trie.find h b.trie in
       let rec agree ca cb =
         match ca, cb with
         | [], [] -> true
         | (h, va) :: ca', [] -> same va (find h b) && agree ca' cb
         | [], (h, vb) :: cb' -> same (find h a) vb && agree ca cb'
         | (ha, va) :: ca', (hb, vb) :: cb' ->
           if ha = hb then same va vb && agree ca' cb'
           else if ha > hb then same va (find ha b) && agree ca' cb
           else same (find hb a) vb && agree ca cb'
       in
       agree changes_a changes_b

let fingerprint b = b.fp

let to_counted_list b =
  fold (fun t n acc -> (t, n) :: acc) b []
  |> List.sort (fun (t1, _) (t2, _) -> Tuple.compare t1 t2)

(* Canonical order: lexicographic over the tuple-sorted entry sequence,
   exactly the order the old [Map.Make (Tuple)] representation compared in. *)
let compare a b =
  List.compare
    (fun (t1, n1) (t2, n2) ->
      match Tuple.compare t1 t2 with 0 -> Int.compare n1 n2 | c -> c)
    (to_counted_list a) (to_counted_list b)

let mem t b = count b t <> 0

let filter f b = filter_map_counts (fun t n -> if f t then Some n else None) b

let map_tuples f b = fold (fun t n acc -> add ~count:n (f t) acc) b empty

let to_list b =
  List.concat_map
    (fun (t, n) ->
      let s = Sign.of_int n in
      List.init (abs n) (fun _ -> (s, t)))
    (to_counted_list b)

let byte_size b = fold (fun t n acc -> acc + (abs n * Tuple.byte_size t)) b 0

let dedup_to_set b = filter_map_counts (fun _ n -> if n > 0 then Some 1 else None) b

let pp ppf b =
  let pp_entry ppf (t, n) =
    if n = 1 then Tuple.pp ppf t
    else if n = -1 then Format.fprintf ppf "-%a" Tuple.pp t
    else Format.fprintf ppf "%+d*%a" n Tuple.pp t
  in
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    (to_counted_list b)

let to_string b = Format.asprintf "%a" pp b

module Private = struct
  type node = Trie.t

  let node b h = Trie.find h b.trie

  let changed a b =
    let visited = ref 0 in
    let diff = Trie.changed ~tick:(fun () -> incr visited) a.trie b.trie [] in
    (diff, !visited)

  let depth b =
    let rec go = function
      | Trie.Branch { l; r; _ } -> 1 + max (go l) (go r)
      | _ -> 0
    in
    go b.trie
end
