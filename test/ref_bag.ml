(* The signed bag as it was before the Patricia trie, kept as a
   reference model: the same entries under a hash-keyed AVL of collision
   buckets, a node, a cons and a pair per entry. Its folds run in
   ascending signed hash order with each bucket in list order, the order
   the trie must reproduce; the "bag = AVL reference" property in
   test_bag.ml drives both with the same operation chains and compares
   every observable. *)

open Relational

(* The int-keyed AVL under the bag: one node per hash key, holding that
   key's collision bucket. It keeps ascending key order — the order of
   the [Map.Make (Int)] it replaced, so folds, evaluation order and every
   golden are unchanged — and has only the operations the bag needs,
   plus [split] for [equal_since]'s diff. The balancing code follows the
   standard library's [Map]. *)
module Tree = struct
  type bucket = (Tuple.t * int) list

  type t =
    | Empty
    | Node of { l : t; k : int; v : bucket; r : t; h : int }

  let height = function Empty -> 0 | Node { h; _ } -> h

  let create l k v r =
    let hl = height l and hr = height r in
    Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let bal l k v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Node { l = ll; k = lk; v = lv; r = lr; _ } ->
        if height ll >= height lr then create ll lk lv (create lr k v r)
        else (
          match lr with
          | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
            create (create ll lk lv lrl) lrk lrv (create lrr k v r)
          | Empty -> invalid_arg "Bag.Tree.bal")
      | Empty -> invalid_arg "Bag.Tree.bal"
    else if hr > hl + 2 then
      match r with
      | Node { l = rl; k = rk; v = rv; r = rr; _ } ->
        if height rr >= height rl then create (create l k v rl) rk rv rr
        else (
          match rl with
          | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
            create (create l k v rll) rlk rlv (create rlr rk rv rr)
          | Empty -> invalid_arg "Bag.Tree.bal")
      | Empty -> invalid_arg "Bag.Tree.bal"
    else Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let rec find_opt x = function
    | Empty -> None
    | Node { l; k; v; r; _ } ->
      let c = Int.compare x k in
      if c = 0 then Some v else find_opt x (if c < 0 then l else r)

  let rec min_binding = function
    | Empty -> raise Not_found
    | Node { l = Empty; k; v; _ } -> (k, v)
    | Node { l; _ } -> min_binding l

  let rec remove_min = function
    | Empty -> invalid_arg "Bag.Tree.remove_min"
    | Node { l = Empty; r; _ } -> r
    | Node { l; k; v; r; _ } -> bal (remove_min l) k v r

  let rec add_min k v = function
    | Empty -> Node { l = Empty; k; v; r = Empty; h = 1 }
    | Node { l; k = k'; v = v'; r; _ } -> bal (add_min k v l) k' v' r

  let rec add_max k v = function
    | Empty -> Node { l = Empty; k; v; r = Empty; h = 1 }
    | Node { l; k = k'; v = v'; r; _ } -> bal l k' v' (add_max k v r)

  (* [join l k v r]: every key of [l] is below [k], every key of [r]
     above; the heights are arbitrary. *)
  let rec join l k v r =
    match l, r with
    | Empty, _ -> add_min k v r
    | _, Empty -> add_max k v l
    | Node { l = ll; k = lk; v = lv; r = lr; h = lh },
      Node { l = rl; k = rk; v = rv; r = rr; h = rh } ->
      if lh > rh + 2 then bal ll lk lv (join lr k v r)
      else if rh > lh + 2 then bal (join l k v rl) rk rv rr
      else create l k v r

  (* Every key of [t1] below every key of [t2]; arbitrary heights. *)
  let concat t1 t2 =
    match t1, t2 with
    | Empty, t | t, Empty -> t
    | _ ->
      let k, v = min_binding t2 in
      join t1 k v (remove_min t2)

  (* [update x f t] rebinds [x] to [f] of its bucket, in one descent.
     Buckets are never empty, so [[]] stands for "unbound" both ways:
     [f] receives it for an unbound key and returns it to drop the
     binding. A kept key keeps its node's shape, a new one is a leaf
     rebalanced on the way up, a dropped one is replaced by the [concat]
     of its subtrees — the trees a separate add or remove would build. *)
  let rec update x f = function
    | Empty -> (
      match f [] with
      | [] -> Empty
      | v -> Node { l = Empty; k = x; v; r = Empty; h = 1 })
    | Node { l; k; v; r; h } ->
      let c = Int.compare x k in
      if c = 0 then (
        match f v with
        | [] -> concat l r
        | v -> Node { l; k; v; r; h })
      else if c < 0 then bal (update x f l) k v r
      else bal l k v (update x f r)

  (* [split x t] is the subtree of keys below [x], [x]'s binding, and the
     subtree of keys above it. [tick] is called once per node visited. *)
  let rec split ~tick x = function
    | Empty -> (Empty, None, Empty)
    | Node { l; k; v; r; _ } ->
      tick ();
      let c = Int.compare x k in
      if c = 0 then (l, Some v, r)
      else if c < 0 then
        let ll, found, rl = split ~tick x l in
        (ll, found, join rl k v r)
      else
        let lr, found, rr = split ~tick x r in
        (join l k v lr, found, rr)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Node { l; k; v; r; _ } -> fold f r (f k v (fold f l acc))

  let rec iter f = function
    | Empty -> ()
    | Node { l; k; v; r; _ } ->
      iter f l;
      f k v;
      iter f r

  let rec for_all p = function
    | Empty -> true
    | Node { l; k; v; r; _ } -> p k v && for_all p l && for_all p r

  (* [f] is applied in ascending key order; [None] drops the binding. *)
  let rec filter_map f = function
    | Empty -> Empty
    | Node { l; k; v; r; _ } -> (
      let l' = filter_map f l in
      let v' = f k v in
      let r' = filter_map f r in
      match v' with
      | Some v' -> join l' k v' r'
      | None -> concat l' r')

  (* Binding sequences compared in key order, as [Map.equal] does. *)
  type enum = End | More of int * bucket * t * enum

  let rec cons_enum t e =
    match t with
    | Empty -> e
    | Node { l; k; v; r; _ } -> cons_enum l (More (k, v, r, e))

  let equal eq t1 t2 =
    let rec go e1 e2 =
      match e1, e2 with
      | End, End -> true
      | End, _ | _, End -> false
      | More (k1, v1, r1, e1), More (k2, v2, r2, e2) ->
        k1 = k2 && (v1 == v2 || eq v1 v2)
        && go (cons_enum r1 e1) (cons_enum r2 e2)
    in
    t1 == t2 || go (cons_enum t1 End) (cons_enum t2 End)

  (* The keys whose binding differs between [t1] and [t2], physically —
     bound in one tree only, or to buckets that are not the same object —
     each with its bucket in [t2] (the empty list when unbound), in
     descending key order. Physically shared subtrees are skipped whole,
     so two trees that share all but a few paths cost O(changes ·
     height). [tick] is called once per node visited. *)
  let rec changed ~tick t1 t2 acc =
    if t1 == t2 then acc
    else
      match t1, t2 with
      | Empty, _ -> fold (fun k v acc -> tick (); (k, v) :: acc) t2 acc
      | Node { l; k; v; r; _ }, Node { l = l2; k = k2; v = v2; r = r2; _ }
        when k = k2 ->
        (* the common case, a path copied by [add]: no split needed *)
        tick ();
        let acc = changed ~tick l l2 acc in
        let acc = if v2 == v then acc else (k, v2) :: acc in
        changed ~tick r r2 acc
      | Node { l; k; v; r; _ }, _ ->
        tick ();
        let l2, found, r2 = split ~tick k t2 in
        let acc = changed ~tick l l2 acc in
        let acc =
          match found with
          | Some v2 when v2 == v -> acc
          | found -> (k, Option.value found ~default:[]) :: acc
        in
        changed ~tick r r2 acc
end

type t = {
  size : int;  (* number of distinct tuples, i.e. total bucket entries *)
  neg : int;  (* entries with a negative count, kept current *)
  fp : int;  (* [fingerprint]: Σ [mix h n] over the entries, kept current *)
  buckets : Tree.t;
}

let empty = { size = 0; neg = 0; fp = 0; buckets = Tree.Empty }

let is_empty b = b.size = 0

let distinct_cardinality b = b.size

(* One mixed word per entry, summed into the fingerprint: addition
   commutes, so neither bucket order nor tree shape — both path-dependent
   — can change the sum, and the stored bucket key stands in for the
   tuple's hash, so no tuple is rehashed. The mix is a multiply-xorshift
   finalizer: a linear one would let different counts of different
   tuples cancel out. *)
let mix h n =
  let x = (h + (n * 0x9E3779B9)) * 0xBF58476D1CE4E5B in
  let x = (x lxor (x lsr 29)) * 0x94D049BB133111E in
  x lxor (x lsr 32)

let count b t =
  match Tree.find_opt (Tuple.hash t) b.buckets with
  | None -> 0
  | Some bucket -> (
    match List.find_opt (fun (t', _) -> Tuple.equal t t') bucket with
    | Some (_, n) -> n
    | None -> 0)

(* [t]'s count before adding [count <> 0] copies, and the bag after:
   one hash, one descent. The entry is taken out of its bucket and put
   back in front with its new count, or left out when that count is 0.
   Size, negatives and fingerprint change by the entry's before and
   after contributions (a count of 0 contributes nothing). *)
let adjust count t b =
  let h = Tuple.hash t in
  let before = ref 0 in
  let buckets =
    Tree.update h
      (fun bucket ->
        let rec split acc = function
          | [] -> (t, count) :: bucket
          | ((t', n) as e) :: rest ->
            if Tuple.equal t t' then begin
              before := n;
              let n' = n + count in
              if n' = 0 then List.rev_append acc rest
              else (t, n') :: List.rev_append acc rest
            end
            else split (e :: acc) rest
        in
        split [] bucket)
      b.buckets
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
      buckets;
    } )

let add_get ?count:(c = 1) t b = if c = 0 then (count b t, b) else adjust c t b

let add ?(count = 1) t b = if count = 0 then b else snd (adjust count t b)

let remove ?(count = 1) t b = add ~count:(-count) t b

let singleton ?count t = add ?count t empty

let of_list ts = List.fold_left (fun b t -> add t b) empty ts

let of_signed_list sts =
  List.fold_left (fun b (s, t) -> add ~count:(Sign.to_int s) t b) empty sts

let fold f b acc =
  Tree.fold
    (fun _ bucket acc ->
      List.fold_left (fun acc (t, n) -> f t n acc) acc bucket)
    b.buckets acc

let iter f b =
  Tree.iter (fun _ bucket -> List.iter (fun (t, n) -> f t n) bucket) b.buckets

(* Fold the smaller operand into the larger: counts add commutatively, so
   the result is the same bag either way. *)
let plus a b =
  let small, large = if a.size <= b.size then a, b else b, a in
  fold (fun t n acc -> add ~count:n t acc) small large

(* Rebuild with a per-entry count transform ([f] returning None drops the
   entry); used by all the mapping/filtering operations below. Size,
   negatives and fingerprint are summed in the same pass. *)
let filter_map_counts f b =
  let size = ref 0 and neg = ref 0 and fp = ref 0 in
  let buckets =
    Tree.filter_map
      (fun h bucket ->
        match
          List.filter_map
            (fun (t, n) ->
              match f t n with
              | Some 0 | None -> None
              | Some n' ->
                incr size;
                if n' < 0 then incr neg;
                fp := !fp + mix h n';
                Some (t, n'))
            bucket
        with
        | [] -> None
        | bucket' -> Some bucket')
      b.buckets
  in
  { size = !size; neg = !neg; fp = !fp; buckets }

let negate b = filter_map_counts (fun _ n -> Some (-n)) b

let minus a b = plus a (negate b)

(* As test_bag.ml spells it over the library, which has no [scale]:
   entries re-added in fold order, so both sides' buckets keep one
   insertion order. *)
let scale k b =
  if k = 0 then empty else fold (fun t n acc -> add ~count:(k * n) t acc) b empty

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

let is_set b =
  Tree.for_all (fun _ bucket -> List.for_all (fun (_, n) -> n = 1) bucket) b.buckets

(* Buckets hold the same entries in arbitrary order when two bags were
   built along different paths, so bucket equality is multiset equality.
   Nearly every bucket holds one entry: that case skips the search. *)
let bucket_equal b1 b2 =
  match b1, b2 with
  | [ (t, n) ], [ (t', n') ] -> n = n' && Tuple.equal t t'
  | _ ->
    List.length b1 = List.length b2
    && List.for_all
         (fun (t, n) ->
           List.exists (fun (t', n') -> n = n' && Tuple.equal t t') b2)
         b1

(* Equal bags have equal sizes and fingerprints, so a mismatch in
   either rejects without walking. *)
let equal a b =
  a == b
  || a.size = b.size && a.fp = b.fp
     && Tree.equal bucket_equal a.buckets b.buckets

exception Over_budget

(* Given [equal a0 b0], [a] and [b] agree wherever [a] agrees with [a0]
   and [b] with [b0], so only the keys that changed along either side
   need comparing. The changes are found by diffing the trees, which
   skips the subtrees each side still shares with its ancestor; a diff
   that visits more than a quarter of the bag's nodes gives way to the
   full [equal]. *)
let equal_since (a0, b0) a b =
  a == b
  || a.size = b.size && a.fp = b.fp
     &&
     let budget = ref (a.size / 4) in
     let tick () =
       decr budget;
       if !budget < 0 then raise_notrace Over_budget
     in
     match
       ( Tree.changed ~tick a0.buckets a.buckets [],
         Tree.changed ~tick b0.buckets b.buckets [] )
     with
     | exception Over_budget -> equal a b
     | changes_a, changes_b ->
       (* both lists descend by key: merge them, looking a bucket up only
          where one side changed a key the other did not *)
       let find h t = Option.value (Tree.find_opt h t.buckets) ~default:[] in
       let rec agree ca cb =
         match ca, cb with
         | [], [] -> true
         | (h, va) :: ca', [] -> bucket_equal va (find h b) && agree ca' cb
         | [], (h, vb) :: cb' -> bucket_equal (find h a) vb && agree ca cb'
         | (ha, va) :: ca', (hb, vb) :: cb' ->
           if ha = hb then bucket_equal va vb && agree ca' cb'
           else if ha > hb then bucket_equal va (find ha b) && agree ca' cb
           else bucket_equal (find hb a) vb && agree ca cb'
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
