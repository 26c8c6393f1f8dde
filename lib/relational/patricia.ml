(* Big-endian Patricia tries over int keys (Okasaki and Gill, "Fast
   Mergeable Integer Maps", 1998): the bit logic, and the two tries built
   on it — the bag's trie of counted tuples keyed by their hash
   ({!Entries}) and the column index's buckets keyed by an Int column
   value ({!Buckets}).

   A branch splits its keys on their highest differing bit, its
   branching bit [m]. Keys with [m] clear go left, except at the sign
   bit, where the negative keys go left: left to right is ascending
   signed key order, which is [Int.compare]'s order and so
   [Value.compare]'s order on Int values. A trie never rebalances: its
   shape depends only on its key set.

   Both tries sit in this one compilation unit with the bit logic they
   share, so the single-bit tests at every level of a descent are local
   functions ocamlopt inlines under any build profile. The default
   (release) profile inlines small functions across modules too; the
   dev profile compiles each module opaquely, where a helper called
   across modules would be a closure call at every level. *)

(* A branch's [pm] is its label: the bits its keys share above [m], and
   [m] itself set, in one word. [label k m] is the label [m] gives key
   [k], and [m] is the lowest set bit of a label. *)
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

(* Two nonempty tries of keys [k0] and [k1] (a leaf's key or a branch's
   label) that disagree above both their branching bits, under one new
   branch. *)
let join branch k0 t0 k1 t1 =
  let m = highest_bit (k0 lxor k1) in
  if goes_left k0 m then branch (label k0 m) t0 t1 else branch (label k0 m) t1 t0

(* The bag's trie. A key's single entry sits inline in its [Leaf]; a
   [Bucket] holds the two or more entries of a hash collision, in the
   order the bag has always kept them (the entry last changed in front).
   Equal bags are equal tries. *)
module Entries = struct
  type t =
    | Empty
    | Leaf of { k : int; t : Tuple.t; n : int }
    | Bucket of { k : int; es : (Tuple.t * int) list }  (* two or more *)
    | Branch of { pm : int; l : t; r : t }

  (* A leaf's key or a branch's label: it agrees with the trie's keys
     above the branching bit, so of two tries with disjoint key ranges,
     the one with the smaller [key] holds the smaller keys. *)
  let key = function
    | Leaf { k; _ } | Bucket { k; _ } -> k
    | Branch { pm; _ } -> pm
    | Empty -> invalid_arg "Patricia.Entries.key"

  let join t0 t1 = join (fun pm l r -> Branch { pm; l; r }) (key t0) t0 (key t1) t1

  (* The leaf or bucket of key [h], or [Empty]: one bit test per branch
     on the way down, the key compared once at the bottom. *)
  let rec find h t =
    match t with
    | Branch { pm; l; r } -> find h (if goes_left h (bit pm) then l else r)
    | (Leaf { k; _ } | Bucket { k; _ }) when k = h -> t
    | _ -> Empty

  (* [update h f t] rebinds [h] to [f] of its leaf or bucket ([Empty]
     both ways stands for "unbound"), in one descent that copies the
     path. A branch left with one child is replaced by that child; when
     [f] hands its node back unchanged, [t] itself is returned. *)
  let rec update h f t =
    match t with
    | Empty -> f Empty
    | Leaf { k; _ } | Bucket { k; _ } when k = h -> f t
    | Leaf _ | Bucket _ -> ( match f Empty with Empty -> t | leaf -> join leaf t)
    | Branch { pm; _ } when label h (bit pm) <> pm -> (
      match f Empty with Empty -> t | leaf -> join leaf t)
    | Branch { pm; l; r } ->
      if goes_left h (bit pm) then (
        match update h f l with
        | Empty -> r
        | l' -> if l' == l then t else Branch { pm; l = l'; r })
      else
        match update h f r with
        | Empty -> l
        | r' -> if r' == r then t else Branch { pm; l; r = r' }

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

(* The column index's Int keys: each key bound to a nonempty list, the
   empty list standing for "unbound" both ways, so a lookup or an update
   allocates no option. *)
module Buckets = struct
  type 'a t =
    | Empty
    | Leaf of { k : int; v : 'a list }
    | Branch of { pm : int; l : 'a t; r : 'a t }

  let empty = Empty

  let key = function
    | Leaf { k; _ } -> k
    | Branch { pm; _ } -> pm
    | Empty -> invalid_arg "Patricia.Buckets.key"

  let join t0 t1 = join (fun pm l r -> Branch { pm; l; r }) (key t0) t0 (key t1) t1

  let rec find h = function
    | Branch { pm; l; r } -> find h (if goes_left h (bit pm) then l else r)
    | Leaf { k; v } when k = h -> v
    | _ -> []

  (* [h] rebound to [f] of its list, in one descent that copies the
     path; a branch left with one child is replaced by that child. *)
  let rec update h f t =
    match t with
    | Empty -> ( match f [] with [] -> Empty | v -> Leaf { k = h; v })
    | Leaf { k; v } when k = h -> ( match f v with [] -> Empty | v -> Leaf { k; v })
    | Leaf _ -> ( match f [] with [] -> t | v -> join (Leaf { k = h; v }) t)
    | Branch { pm; _ } when label h (bit pm) <> pm -> (
      match f [] with [] -> t | v -> join (Leaf { k = h; v }) t)
    | Branch { pm; l; r } ->
      if goes_left h (bit pm) then (
        match update h f l with Empty -> r | l -> Branch { pm; l; r })
      else match update h f r with Empty -> l | r -> Branch { pm; l; r }

  (* In ascending key order. *)
  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf { k; v } -> f k v acc
    | Branch { l; r; _ } -> fold f r (fold f l acc)

  let rec map f = function
    | Empty -> Empty
    | Leaf { k; v } -> Leaf { k; v = f v }
    | Branch { pm; l; r } -> Branch { pm; l = map f l; r = map f r }

  (* [f k v] for the keys [lo <= k <= hi], ascending. Below the sign
     bit, a branch labelled [pm] at [m] holds the keys [pm - m] to
     [pm + m - 1], so a branch outside the range is skipped whole. *)
  let rec iter_range lo hi f = function
    | Empty -> ()
    | Leaf { k; v } -> if lo <= k && k <= hi then f k v
    | Branch { pm; l; r } ->
      let m = bit pm in
      if m = min_int || (pm + m - 1 >= lo && pm - m <= hi) then begin
        iter_range lo hi f l;
        iter_range lo hi f r
      end
end
