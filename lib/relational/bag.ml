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

(* The map under the bag: a big-endian Patricia trie over the hash keys
   (Okasaki and Gill, "Fast Mergeable Integer Maps", 1998). A branch
   splits its keys on their highest differing bit, its branching bit
   [m]. Keys with [m] clear go left, except at the sign bit, where the
   negative keys go left: left to right is
   ascending signed key order, the order of the int-keyed trees the bag
   used before, so folds, evaluation order and every golden are
   unchanged. A key's single entry sits inline in its [Leaf]; a [Bucket]
   holds the two or more entries of a hash collision, in the order the
   bag has always kept them (the entry last changed in front). The trie
   never rebalances: its shape depends only on its key set, so equal
   bags are equal tries. *)
module Trie = struct
  type t =
    | Empty
    | Leaf of { k : int; t : Tuple.t; n : int }
    | Bucket of { k : int; es : (Tuple.t * int) list }  (* two or more *)
    | Branch of { pm : int; l : t; r : t }

  (* A branch's [pm] is its label: the bits its keys share above [m],
     and [m] itself set, in one word. [label k m] is the label [m] gives
     key [k], and [m] is the lowest set bit of a label. *)
  let label k m = (k lor m) land -m

  let bit pm = pm land -pm

  (* Whether [k] goes left at [m]; the flip of the sign bit sends the
     negative keys left of the others. *)
  let goes_left k m = (k lxor min_int) land m = 0

  (* Unsigned [m1 > m2] on single bits: the sign bit is the highest. *)
  let higher m1 m2 = m1 lxor min_int > m2 lxor min_int

  let highest_bit x =
    let x = x lor (x lsr 1) in
    let x = x lor (x lsr 2) in
    let x = x lor (x lsr 4) in
    let x = x lor (x lsr 8) in
    let x = x lor (x lsr 16) in
    let x = x lor (x lsr 32) in
    x lxor (x lsr 1)

  (* A leaf's key or a branch's label: it agrees with the trie's keys
     above the branching bit, so of two tries with disjoint key ranges,
     the one with the smaller [key] holds the smaller keys. *)
  let key = function
    | Leaf { k; _ } | Bucket { k; _ } -> k
    | Branch { pm; _ } -> pm
    | Empty -> invalid_arg "Bag.Trie.key"

  (* Two nonempty tries whose keys disagree above both their branching
     bits, under one new branch. *)
  let join t0 t1 =
    let k0 = key t0 in
    let m = highest_bit (k0 lxor key t1) in
    if goes_left k0 m then Branch { pm = label k0 m; l = t0; r = t1 }
    else Branch { pm = label k0 m; l = t1; r = t0 }

  (* The leaf or bucket of key [h], or [Empty]: one bit test per branch
     on the way down, the key compared once at the bottom. *)
  let rec find h t =
    match t with
    | Branch { pm; l; r } -> find h (if goes_left h (bit pm) then l else r)
    | (Leaf { k; _ } | Bucket { k; _ }) when k = h -> t
    | _ -> Empty

  (* [update h f t] rebinds [h] to [f] of its leaf or bucket ([Empty]
     both ways stands for "unbound"), in one descent that copies the
     path. A branch left with one child is replaced by that child. *)
  let rec update h f t =
    match t with
    | Empty -> f Empty
    | Leaf { k; _ } | Bucket { k; _ } when k = h -> f t
    | Leaf _ | Bucket _ -> ( match f Empty with Empty -> t | leaf -> join leaf t)
    | Branch { pm; _ } when label h (bit pm) <> pm -> (
      match f Empty with Empty -> t | leaf -> join leaf t)
    | Branch { pm; l; r } ->
      if goes_left h (bit pm) then (
        match update h f l with Empty -> r | l -> Branch { pm; l; r })
      else match update h f r with Empty -> l | r -> Branch { pm; l; r }

  (* Every leaf and bucket replaced by [f] of it, in ascending key order;
     [Empty] drops the key. Unchanged subtries are kept, not copied. *)
  let rec map_leaves f t =
    match t with
    | Empty -> Empty
    | Leaf _ | Bucket _ -> f t
    | Branch { pm; l; r } -> (
      let l' = map_leaves f l in
      let r' = map_leaves f r in
      match l', r' with
      | Empty, only | only, Empty -> only
      | _ -> if l' == l && r' == r then t else Branch { pm; l = l'; r = r' })

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf { t; n; _ } -> f t n acc
    | Bucket { es; _ } -> List.fold_left (fun acc (t, n) -> f t n acc) acc es
    | Branch { l; r; _ } -> fold f r (fold f l acc)

  let rec iter f = function
    | Empty -> ()
    | Leaf { t; n; _ } -> f t n
    | Bucket { es; _ } -> List.iter (fun (t, n) -> f t n) es
    | Branch { l; r; _ } ->
      iter f l;
      iter f r

  let rec for_all p = function
    | Empty -> true
    | Leaf { t; n; _ } -> p t n
    | Bucket { es; _ } -> List.for_all (fun (t, n) -> p t n) es
    | Branch { l; r; _ } -> for_all p l && for_all p r

  let rec exists p = function
    | Empty -> false
    | Leaf { t; n; _ } -> p t n
    | Bucket { es; _ } -> List.exists (fun (t, n) -> p t n) es
    | Branch { l; r; _ } -> exists p l || exists p r

  (* Buckets hold the same entries in arbitrary order when two bags were
     built along different paths, so bucket equality is multiset
     equality. *)
  let bucket_equal es1 es2 =
    List.length es1 = List.length es2
    && List.for_all
         (fun (t, n) -> List.exists (fun (t', n') -> n = n' && Tuple.equal t t') es2)
         es1

  (* Two leaves, buckets or [Empty]s of one key. *)
  let entries_equal t1 t2 =
    t1 == t2
    ||
    match t1, t2 with
    | Leaf a, Leaf b -> a.n = b.n && Tuple.equal a.t b.t
    | Bucket a, Bucket b -> bucket_equal a.es b.es
    | _ -> false

  (* Equal key sets make equal shapes, so the walk is in lockstep. *)
  let rec equal t1 t2 =
    t1 == t2
    ||
    match t1, t2 with
    | Branch a, Branch b -> a.pm = b.pm && equal a.l b.l && equal a.r b.r
    | (Leaf { k; _ } | Bucket { k; _ }), (Leaf { k = k'; _ } | Bucket { k = k'; _ }) ->
      k = k' && entries_equal t1 t2
    | _ -> false

  (* Whether every key of [t] lies under a branch labelled [pm]. *)
  let inside t pm =
    let m = bit pm in
    match t with
    | Leaf { k; _ } | Bucket { k; _ } -> label k m = pm
    | Branch b -> higher m (bit b.pm) && label b.pm m = pm
    | Empty -> false

  let rec fold_leaves f t acc =
    match t with
    | Empty -> acc
    | Leaf { k; _ } | Bucket { k; _ } -> f k t acc
    | Branch { l; r; _ } -> fold_leaves f r (fold_leaves f l acc)

  (* Every key of [t], as bound in [t] or as unbound. *)
  let fresh ~tick t acc = fold_leaves (fun k nd acc -> tick (); (k, nd) :: acc) t acc
  let gone ~tick t acc = fold_leaves (fun k _ acc -> tick (); (k, Empty) :: acc) t acc

  (* The keys whose leaf or bucket differs between [t1] and [t2],
     physically — bound in one trie only, or to nodes that are not the
     same object — each with its node in [t2] ([Empty] when unbound), in
     descending key order. Physically shared subtries are skipped whole;
     where one trie's keys fall inside one child of the other's branch
     (the Patricia merge case: a key added or removed just above them),
     only the other child is enumerated. So two tries that share all but
     a few paths cost O(changes · depth). [tick] is called once per node
     visited. *)
  let rec changed ~tick t1 t2 acc =
    if t1 == t2 then acc
    else begin
      tick ();
      match t1, t2 with
      | Empty, _ -> fresh ~tick t2 acc
      | _, Empty -> gone ~tick t1 acc
      | Branch a, Branch b when a.pm = b.pm ->
        changed ~tick a.r b.r (changed ~tick a.l b.l acc)
      | Branch a, _ when inside t2 a.pm ->
        if goes_left (key t2) (bit a.pm) then gone ~tick a.r (changed ~tick a.l t2 acc)
        else changed ~tick a.r t2 (gone ~tick a.l acc)
      | _, Branch b when inside t1 b.pm ->
        if goes_left (key t1) (bit b.pm) then fresh ~tick b.r (changed ~tick t1 b.l acc)
        else changed ~tick t1 b.r (fresh ~tick b.l acc)
      | (Leaf _ | Bucket _), (Leaf _ | Bucket _) when key t1 = key t2 -> (key t2, t2) :: acc
      | _ ->
        if key t1 < key t2 then fresh ~tick t2 (gone ~tick t1 acc)
        else gone ~tick t1 (fresh ~tick t2 acc)
    end
end

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

(* [t]'s count before adding [count <> 0] copies, and the bag after:
   one hash, one descent. The entry is taken out of its leaf or bucket
   and put back in front with its new count, or left out when that count
   is 0; a bucket left with one entry becomes a leaf. Size, negatives and
   fingerprint change by the entry's before and after contributions (a
   count of 0 contributes nothing). *)
let adjust count t b =
  let h = Tuple.hash t in
  let before = ref 0 in
  let trie =
    Trie.update h
      (fun node ->
        match node with
        | Leaf { t = t'; n; _ } when Tuple.equal t t' ->
          before := n;
          if n + count = 0 then Empty else Leaf { k = h; t; n = n + count }
        | Leaf { t = t'; n; _ } -> Bucket { k = h; es = [ (t, count); (t', n) ] }
        | Bucket { es; _ } -> (
          let rec split acc = function
            | [] -> (t, count) :: es
            | ((t', n) as e) :: rest ->
              if Tuple.equal t t' then begin
                before := n;
                let n' = n + count in
                if n' = 0 then List.rev_append acc rest
                else (t, n') :: List.rev_append acc rest
              end
              else split (e :: acc) rest
          in
          match split [] es with
          | [ (t, n) ] -> Leaf { k = h; t; n }
          | es -> Bucket { k = h; es })
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

let add_get ?count:(c = 1) t b = if c = 0 then (count b t, b) else adjust c t b

let add ?(count = 1) t b = if count = 0 then b else snd (adjust count t b)

let remove ?(count = 1) t b = add ~count:(-count) t b

let singleton ?count t = add ?count t empty

let of_list ts = List.fold_left (fun b t -> add t b) empty ts

let of_signed_list sts =
  List.fold_left (fun b (s, t) -> add ~count:(Sign.to_int s) t b) empty sts

let fold f b acc = Trie.fold f b.trie acc

let iter f b = Trie.iter f b.trie

(* Fold the smaller operand into the larger: counts add commutatively, so
   the result is the same bag either way. *)
let plus a b =
  let small, large = if a.size <= b.size then a, b else b, a in
  fold (fun t n acc -> add ~count:n t acc) small large

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

let neg_part b = filter_map_counts (fun _ n -> if n < 0 then Some (-n) else None) b

let union a b = plus (pos_part a) (pos_part b)

(* Truncating bag difference on non-negative bags: copies below zero vanish.
   This is classic multiset difference, provided for comparison with the
   paper's (pos ∪ pos) − (neg ∪ neg) formulation; the signed [minus] above
   is the operator the algorithms use. *)
let diff_truncated a b =
  let pa = pos_part a in
  fold
    (fun t nb acc ->
      match count acc t with
      | 0 -> acc
      | na -> add ~count:(max 0 (na - nb) - na) t acc)
    (pos_part b) pa

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
