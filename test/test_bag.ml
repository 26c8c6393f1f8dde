(* Signed-bag unit tests plus qcheck laws: the algebraic properties of
   Section 4.1 that the compensation scheme relies on. *)

open Helpers
module R = Relational

let t1 = R.Tuple.ints [ 1 ]
let t2 = R.Tuple.ints [ 2 ]

(* The paper's pos(r) and neg(r) (Section 4.1), read through the
   library's union of positive parts, and the classic truncating
   difference and signed-list constructor the laws compare against: the
   library keeps only the signed operators the algorithms use. *)
let pos_part b = R.Bag.union b R.Bag.empty

let neg_part b = pos_part (R.Bag.negate b)

let diff_truncated a b =
  R.Bag.fold
    (fun t nb acc ->
      match R.Bag.count acc t with
      | 0 -> acc
      | na -> R.Bag.add ~count:(max 0 (na - nb) - na) t acc)
    (pos_part b) (pos_part a)

let of_signed_list sts =
  List.fold_left (fun b (s, t) -> R.Bag.add ~count:(R.Sign.to_int s) t b) R.Bag.empty sts

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let counts () =
  let b = R.Bag.add ~count:2 t1 (R.Bag.singleton ~count:(-1) t2) in
  check_int "positive count" 2 (R.Bag.count b t1);
  check_int "negative count" (-1) (R.Bag.count b t2);
  check_int "absent" 0 (R.Bag.count b (R.Tuple.ints [ 9 ]));
  check_int "cardinality counts copies" 3 (R.Bag.cardinality b);
  check_int "net cardinality" 1 (R.Bag.net_cardinality b);
  check_bool "has negative" true (R.Bag.has_negative b)

let cancellation () =
  let b = R.Bag.add ~count:(-1) t1 (R.Bag.singleton t1) in
  check_bool "opposite signs cancel to empty" true (R.Bag.is_empty b);
  let c = of_signed_list [ (R.Sign.Pos, t1); (R.Sign.Neg, t1) ] in
  check_bool "signed list cancels" true (R.Bag.is_empty c)

let pos_neg_parts () =
  let b = R.Bag.add ~count:(-3) t2 (R.Bag.singleton ~count:2 t1) in
  check_bag "pos part" (R.Bag.singleton ~count:2 t1) (pos_part b);
  check_bag "neg part has magnitudes" (R.Bag.singleton ~count:3 t2)
    (neg_part b)

let plus_minus () =
  let a = R.Bag.singleton ~count:2 t1 in
  let b = R.Bag.add ~count:1 t2 (R.Bag.singleton ~count:(-1) t1) in
  let sum = R.Bag.plus a b in
  check_int "t1 nets to 1" 1 (R.Bag.count sum t1);
  check_int "t2 nets to 1" 1 (R.Bag.count sum t2);
  check_bag "a - a = empty" R.Bag.empty (R.Bag.minus a a)

let truncating_diff () =
  let a = R.Bag.singleton ~count:1 t1 in
  let b = R.Bag.singleton ~count:3 t1 in
  check_bag "truncates at zero" R.Bag.empty (diff_truncated a b);
  check_int "signed minus goes negative" (-2)
    (R.Bag.count (R.Bag.minus a b) t1)

let dedup () =
  let b = R.Bag.add ~count:3 t1 (R.Bag.singleton ~count:(-2) t2) in
  let s = R.Bag.dedup_to_set b in
  check_int "kept one positive copy" 1 (R.Bag.count s t1);
  check_int "dropped negatives" 0 (R.Bag.count s t2);
  check_bool "result is a set" true (R.Bag.is_set s)

let expansion () =
  let b = R.Bag.add ~count:(-1) t2 (R.Bag.singleton ~count:2 t1) in
  Alcotest.(check int) "expanded entries" 3 (List.length (R.Bag.to_list b));
  check_int "byte size weighs copies" ((2 * 4) + 4) (R.Bag.byte_size b)

(* ------------------------------------------------------------------ *)
(* qcheck laws                                                         *)
(* ------------------------------------------------------------------ *)

let tuple_gen =
  QCheck.Gen.(
    map (fun l -> R.Tuple.ints l) (list_size (return 2) (int_bound 3)))

let entries_gen =
  QCheck.Gen.(list_size (int_bound 8) (pair tuple_gen (int_range (-3) 3)))

let of_entries entries =
  List.fold_left (fun b (t, c) -> R.Bag.add ~count:c t b) R.Bag.empty entries

let bag_gen = QCheck.Gen.map of_entries entries_gen

let arb_bag = QCheck.make ~print:R.Bag.to_string bag_gen

let arb_bag2 = QCheck.pair arb_bag arb_bag
let arb_bag3 = QCheck.triple arb_bag arb_bag arb_bag

let law name count arb law = QCheck.Test.make ~name ~count arb law

let show_entries es =
  String.concat "; "
    (List.map (fun (t, c) -> Printf.sprintf "%d*%s" c (R.Tuple.to_string t)) es)

(* One bag's signed entries (counts may be negative) and the material to
   rebuild it along other paths: the same entries in another order, a
   detour of extra entries that are later deleted again, and a second bag
   to add and subtract. *)
let arb_paths =
  QCheck.make
    ~print:(fun (es, permuted, detour, other) ->
      Printf.sprintf "entries [%s] permuted [%s] detour [%s] other %s"
        (show_entries es) (show_entries permuted) (show_entries detour)
        (R.Bag.to_string other))
    QCheck.Gen.(
      let* es = entries_gen in
      let* permuted = shuffle_l es in
      let* detour = entries_gen in
      let+ other = bag_gen in
      (es, permuted, detour, other))

(* [has_negative] is a stored count: the reference is a scan. *)
let scanned_negative b = List.exists (fun (_, n) -> n < 0) (R.Bag.to_counted_list b)

let fingerprint_paths (es, permuted, detour, other) =
  let direct = of_entries es in
  (* every intermediate bag of an add chain, counts of both signs *)
  let chain_ok b0 entries =
    List.fold_left
      (fun (b, ok) (t, c) ->
        let b = R.Bag.add ~count:c t b in
        (b, ok && R.Bag.has_negative b = scanned_negative b))
      (b0, true) entries
    |> snd
  in
  let detoured =
    List.fold_left
      (fun b (t, c) -> R.Bag.remove ~count:c t b)
      (of_entries (detour @ es))
      detour
  in
  let paths =
    [
      of_entries permuted;
      detoured;
      R.Bag.minus (R.Bag.plus direct other) other;
      R.Bag.plus (R.Bag.negate other) (R.Bag.plus other direct);
      (* through [filter_map_counts], which sums its own fingerprint *)
      R.Bag.negate (R.Bag.negate direct);
      R.Bag.scale 1 direct;
      R.Bag.filter (fun _ -> true) direct;
      R.Bag.minus (pos_part direct) (neg_part direct);
    ]
  in
  List.for_all
    (fun b ->
      R.Bag.equal b direct && R.Bag.fingerprint b = R.Bag.fingerprint direct)
    paths
  && chain_ok R.Bag.empty (detour @ es)
  && chain_ok (of_entries (detour @ es)) (List.map (fun (t, c) -> (t, -c)) detour)
  && List.for_all
       (fun b -> R.Bag.has_negative b = scanned_negative b)
       (paths
       @ [
           direct;
           other;
           R.Bag.negate direct;
           R.Bag.scale 3 direct;
           R.Bag.scale (-2) direct;
           R.Bag.minus direct other;
           R.Bag.minus other direct;
           pos_part direct;
           neg_part direct;
           R.Bag.negate (neg_part direct);
           R.Bag.filter (fun t -> R.Tuple.hash t land 1 = 0) direct;
           R.Bag.filter (fun t -> R.Bag.count direct t < 0) direct;
           R.Bag.dedup_to_set direct;
         ])

(* Two one-column tuples whose hashes collide, found by search so the
   premise holds whatever the hash function: they share one bucket. *)
let colliding =
  lazy
    (let seen = Hashtbl.create 4096 in
     let rec search n =
       let t = R.Tuple.ints [ n ] in
       match Hashtbl.find_opt seen (R.Tuple.hash t) with
       | Some t' -> (t', t)
       | None ->
         Hashtbl.replace seen (R.Tuple.hash t) t;
         search (n + 1)
     in
     search 0)

(* Tuples over a wider domain, so bags reach dozens of distinct tuples,
   with the colliding pair drawn one time in [1 + rare]: often enough to
   fill a shared bucket, and in chains to change one. *)
let wide_tuple_gen rare =
  let c1, c2 = Lazy.force colliding in
  QCheck.Gen.(
    frequency
      [
        (rare, map2 (fun i j -> R.Tuple.ints [ i; j ]) (int_bound 60) (int_bound 3));
        (1, oneofl [ c1; c2 ]);
      ])

let wide_entries_gen ~rare size =
  QCheck.Gen.(list_size size (pair (wide_tuple_gen rare) (int_range (-2) 2)))

(* [a0] ≡ [b0] built along different paths (one in another order and
   through a detour), then [a] and [b] derived from them by add/remove
   chains of 0–40 steps: the same steps shuffled (so [a] ≡ [b]), the
   same steps plus one count (a near miss), or unrelated steps. Short
   chains keep [equal_since] on its diff; long ones push it past the
   budget onto the full comparison. *)
let arb_since =
  QCheck.make
    ~print:(fun (base, detour, chain_a, chain_b) ->
      Printf.sprintf "base [%s] detour [%s] chain_a [%s] chain_b [%s]"
        (show_entries base) (show_entries detour) (show_entries chain_a)
        (show_entries chain_b))
    QCheck.Gen.(
      let chain =
        wide_entries_gen ~rare:2 (frequency [ (3, int_bound 3); (1, int_bound 40) ])
      in
      let* base = wide_entries_gen ~rare:8 (int_range 0 200) in
      let* detour = wide_entries_gen ~rare:8 (int_bound 10) in
      let* chain_a = chain in
      let+ chain_b =
        frequency
          [
            (3, shuffle_l chain_a);
            ( 1,
              let* t = wide_tuple_gen 2 and* c = oneofl [ 1; -1 ] in
              shuffle_l ((t, c) :: chain_a) );
            (1, chain);
          ]
      in
      (base, detour, chain_a, chain_b))

let equal_since_law (base, detour, chain_a, chain_b) =
  let a0 = of_entries base in
  let b0 =
    List.fold_left
      (fun b (t, c) -> R.Bag.remove ~count:c t b)
      (of_entries (List.rev_append detour (List.rev base)))
      detour
  in
  let apply chain b0 =
    List.fold_left (fun b (t, c) -> R.Bag.add ~count:c t b) b0 chain
  in
  let a = apply chain_a a0 and b = apply chain_b b0 in
  R.Bag.equal a0 b0 && R.Bag.equal_since (a0, b0) a b = R.Bag.equal a b

(* Chains of [add_get] steps over few tuples — the colliding pair
   among them, so buckets hold two entries — with counts in −3..3, so
   steps of 0 and cancellations to zero are common. *)
let arb_add_get =
  QCheck.make
    ~print:show_entries
    QCheck.Gen.(
      let c1, c2 = Lazy.force colliding in
      list_size (int_bound 60)
        (pair
           (frequency
              [
                (4, map (fun i -> R.Tuple.ints [ i ]) (int_bound 5));
                (1, oneofl [ c1; c2 ]);
              ])
           (int_range (-3) 3)))

(* Every before-count [add_get] returns, and the final bag's contents,
   distinct count, negative flag and fingerprint, against a table. *)
let add_get_law steps =
  let model = Hashtbl.create 16 in
  let model_count t = Option.value (Hashtbl.find_opt model t) ~default:0 in
  let b, counts_ok =
    List.fold_left
      (fun (b, ok) (t, c) ->
        let before, b = R.Bag.add_get ~count:c t b in
        let ok = ok && before = model_count t in
        (match before + c with
         | 0 -> Hashtbl.remove model t
         | n -> Hashtbl.replace model t n);
        (b, ok))
      (R.Bag.empty, true) steps
  in
  let expected =
    Hashtbl.fold (fun t n acc -> (t, n) :: acc) model []
    |> List.sort (fun (t1, _) (t2, _) -> R.Tuple.compare t1 t2)
  in
  counts_ok
  && List.equal
       (fun (t1, n1) (t2, n2) -> R.Tuple.equal t1 t2 && n1 = n2)
       (R.Bag.to_counted_list b) expected
  && R.Bag.distinct_cardinality b = Hashtbl.length model
  && R.Bag.has_negative b = List.exists (fun (_, n) -> n < 0) expected
  && R.Bag.fingerprint b = R.Bag.fingerprint (of_entries expected)

(* [remove_all] and [add_if_absent] at every step of an [add_get] chain,
   against [count] and [add]: the count returned, the bag node for node
   (fold order, fingerprint, distinct count, negative flag, equality),
   and the bag itself, physically, when the tuple was absent or present
   respectively. *)
let one_descent_law steps =
  let same a b =
    List.equal
      (fun (t, n) (t', n') -> n = n' && R.Tuple.equal t t')
      (R.Bag.fold (fun t n acc -> (t, n) :: acc) a [])
      (R.Bag.fold (fun t n acc -> (t, n) :: acc) b [])
    && R.Bag.fingerprint a = R.Bag.fingerprint b
    && R.Bag.distinct_cardinality a = R.Bag.distinct_cardinality b
    && R.Bag.has_negative a = R.Bag.has_negative b
    && R.Bag.equal a b
  in
  let check b t =
    let n = R.Bag.count b t in
    let before, removed = R.Bag.remove_all t b in
    let added = R.Bag.add_if_absent t b in
    before = n
    && same removed (R.Bag.add ~count:(-n) t b)
    && (n <> 0 || removed == b)
    && same added (if n = 0 then R.Bag.add t b else b)
    && (n = 0 || added == b)
  in
  let c1, c2 = Lazy.force colliding in
  let probes = c1 :: c2 :: List.init 6 (fun i -> R.Tuple.ints [ i ]) in
  fst
    (List.fold_left
       (fun (ok, b) (t, c) ->
         let b = R.Bag.add ~count:c t b in
         (ok && List.for_all (check b) probes, b))
       (true, R.Bag.empty) steps)

(* ------------------------------------------------------------------ *)
(* Keys of both signs, and the trie against the AVL reference          *)
(* ------------------------------------------------------------------ *)

(* Thirteen-column tuples: the first column's hash is multiplied by
   31^12, the second's by 31^11, and both products wrap, so their hashes
   fall on both sides of zero. [signed_pool] holds the first sixteen
   tuples [n; 0; ...; 0] of each sign. [colliding_wide] holds three
   pairs of each sign that collide because their columns do:
   [c1 @ [n; 0; ...]] and [c2 @ [n; 0; ...]] for [test_bag]'s colliding
   one-column pair [c1], [c2]. *)
let signed_pool =
  lazy
    (let rec search n neg pos =
       if List.length neg >= 16 && List.length pos >= 16 then (neg, pos)
       else
         let t = R.Tuple.ints (n :: List.init 12 (fun _ -> 0)) in
         if R.Tuple.hash t < 0 then search (n + 1) (t :: neg) pos
         else search (n + 1) neg (t :: pos)
     in
     search 0 [] [])

let colliding_wide =
  lazy
    (let c1, c2 = Lazy.force colliding in
     let rec search n neg pos =
       if List.length neg >= 3 && List.length pos >= 3 then neg @ pos
       else
         let rest = R.Tuple.ints (n :: List.init 11 (fun _ -> 0)) in
         let pair = (R.Tuple.concat c1 rest, R.Tuple.concat c2 rest) in
         if R.Tuple.hash (fst pair) < 0 then search (n + 1) (pair :: neg) pos
         else search (n + 1) neg (pair :: pos)
     in
     search 0 [] [])

let signed_tuples () =
  let neg, pos = Lazy.force signed_pool in
  neg @ pos

(* The same entries added in opposite orders give equal bags, whatever
   the signs of their hashes and with shared collision buckets; one
   count apart they differ. *)
let opposite_orders () =
  let c1, c2 = Lazy.force colliding in
  let es =
    List.mapi (fun i t -> (t, (i mod 5) - 2)) (signed_tuples ())
    @ List.concat_map (fun (p, q) -> [ (p, 1); (q, -2) ]) (Lazy.force colliding_wide)
    @ [ (c1, 2); (c2, -1); (t1, 1); (t2, 3) ]
  in
  let a = of_entries es and b = of_entries (List.rev es) in
  check_bool "hashes of both signs" true
    (List.exists (fun (t, _) -> R.Tuple.hash t < 0) es
    && List.exists (fun (t, _) -> R.Tuple.hash t >= 0) es);
  check_bool "equal across insertion orders" true (R.Bag.equal a b);
  check_bool "equal_since from empty" true (R.Bag.equal_since (R.Bag.empty, R.Bag.empty) a b);
  List.iter
    (fun (t, _) ->
      let b' = R.Bag.add t b in
      check_bool "one count apart" false (R.Bag.equal a b');
      check_bool "one count apart, since (a, b)" false (R.Bag.equal_since (a, b) a b'))
    es

(* The colliding partner of a tuple of [colliding_wide], else itself. *)
let partner t =
  List.fold_left
    (fun t' (p, q) -> if R.Tuple.equal t p then q else if R.Tuple.equal t q then p else t')
    t (Lazy.force colliding_wide)

(* [a0] ≡ [b0] of up to 200 entries built in opposite orders, then [a]
   and [b] derived from them by short chains over keys of both hash
   signs, many of them fresh: the same chain shuffled, the chain with
   some tuples swapped for their colliding partners, the chain plus one
   step, or another chain. The fresh keys make each trie branch at bits
   its base never did, so the diff meets a subtrie of the base inside
   one child of a new branch. The partner swap keeps every (hash, count)
   pair, so sizes and fingerprints agree and only the diff, which the
   short chains keep within its budget, can tell [a] from [b]. *)
let arb_fresh =
  QCheck.make
    ~print:(fun (base, chain_a, chain_b) ->
      Printf.sprintf "base [%s] chain_a [%s] chain_b [%s]" (show_entries base)
        (show_entries chain_a) (show_entries chain_b))
    QCheck.Gen.(
      let neg, pos = Lazy.force signed_pool in
      let half ts = List.filteri (fun i _ -> i mod 2 = 0) ts in
      let colliders = List.concat_map (fun (p, q) -> [ p; q ]) (Lazy.force colliding_wide) in
      let nonzero = oneofl [ -2; -1; 1; 2 ] in
      let entry tuple = pair tuple nonzero in
      let base_tuple =
        frequency
          [
            (6, map2 (fun i j -> R.Tuple.ints [ i; j ]) (int_bound 60) (int_bound 3));
            (2, oneofl (half neg @ half pos));
            (1, oneofl (half colliders));
          ]
      in
      let chain_tuple = oneofl (neg @ pos @ colliders @ colliders) in
      let* base = list_size (int_bound 200) (entry base_tuple) in
      (* a step: a count of a pool tuple, or a base entry taken out, or
         moved to its colliding partner *)
      let step =
        let added = map (fun e -> [ e ]) (entry chain_tuple) in
        if base = [] then added
        else
          frequency
            [
              (3, added);
              (1, map (fun (t, c) -> [ (t, -c) ]) (oneofl base));
              (1, map (fun (t, c) -> [ (t, -c); (partner t, c) ]) (oneofl base));
            ]
      in
      let chain = map List.concat (list_size (int_bound 4) step) in
      let* chain_a = chain in
      let+ chain_b =
        frequency
          [
            (2, shuffle_l chain_a);
            ( 3,
              flatten_l
                (List.map
                   (fun (t, c) -> map (fun swap -> ((if swap then partner t else t), c)) bool)
                   chain_a) );
            (1, let* e = entry chain_tuple in shuffle_l (e :: chain_a));
            (1, chain);
          ]
      in
      (base, chain_a, chain_b))

let fresh_keys_law (base, chain_a, chain_b) =
  let trie chain b = List.fold_left (fun b (t, c) -> R.Bag.add ~count:c t b) b chain in
  let avl chain b = List.fold_left (fun b (t, c) -> Ref_bag.add ~count:c t b) b chain in
  let a0 = trie base R.Bag.empty and b0 = trie (List.rev base) R.Bag.empty in
  let a = trie chain_a a0 and b = trie chain_b b0 in
  let r0 = avl base Ref_bag.empty and s0 = avl (List.rev base) Ref_bag.empty in
  let r = avl chain_a r0 and s = avl chain_b s0 in
  let eq = R.Bag.equal a b in
  R.Bag.equal a0 b0
  && R.Bag.equal_since (a0, b0) a b = eq
  && Ref_bag.equal r s = eq
  && Ref_bag.equal_since (r0, s0) r s = eq

(* [Bag.Private.changed], the diff under [equal_since], against a brute
   force over every hash either bag holds: exactly the hashes whose two
   nodes are not the same object, in descending order, each with its
   node in the second bag. A diff that lists a removed subtrie's keys as
   bound too, drops them, or misorders disjoint subtries fails it. The
   pairs are the [arb_fresh] bags: each derived bag against its base,
   both ways, plus pairs that share little. Against its base, [k] add
   steps change at most [k] keys, so the diff visits at most [k] paths
   from the root and the leaves beside them: [k * (depth + 4) + 1]
   nodes, far below the trie's [2n - 1] when [k] is small. *)
let changed_law (base, chain_a, chain_b) =
  let module P = R.Bag.Private in
  let apply chain b = List.fold_left (fun b (t, c) -> R.Bag.add ~count:c t b) b chain in
  let a0 = apply base R.Bag.empty and b0 = apply (List.rev base) R.Bag.empty in
  let a = apply chain_a a0 and b = apply chain_b b0 in
  let brute x y =
    let hashes b = R.Bag.fold (fun t _ acc -> R.Tuple.hash t :: acc) b [] in
    List.sort_uniq (fun h h' -> compare h' h) (hashes x @ hashes y)
    |> List.filter_map (fun h ->
           let n = P.node y h in
           if P.node x h == n then None else Some (h, n))
  in
  let exact (x, y) =
    let diff, _ = P.changed x y and want = brute x y in
    List.length diff = List.length want
    && List.for_all2 (fun (h, n) (h', n') -> h = h' && n == n') diff want
  in
  let within (x0, chain, x) =
    let _, visited = P.changed x0 x in
    visited <= (List.length chain * (max (P.depth x0) (P.depth x) + 4)) + 1
  in
  List.for_all exact [ (a0, a); (a, a0); (b0, b); (a0, b0); (a, b) ]
  && List.for_all within [ (a0, chain_a, a); (a, chain_a, a0); (b0, chain_b, b) ]

(* One step of a chain, applied alike to both models. *)
type op =
  | Add of R.Tuple.t * int
  | Add_get of R.Tuple.t * int
  | Remove of R.Tuple.t * int
  | Remove_all of R.Tuple.t
  | Add_if_absent of R.Tuple.t
  | Plus of (R.Tuple.t * int) list
  | Minus of (R.Tuple.t * int) list
  | Negate
  | Scale of int
  | Filter of int  (* keep the tuples whose hash is not [k] mod 3 *)
  | Map_tuples  (* halve every column: distinct tuples merge *)
  | Pos_part
  | Dedup_to_set

let show_op = function
  | Add (t, c) -> Printf.sprintf "add %d*%s" c (R.Tuple.to_string t)
  | Add_get (t, c) -> Printf.sprintf "add_get %d*%s" c (R.Tuple.to_string t)
  | Remove (t, c) -> Printf.sprintf "remove %d*%s" c (R.Tuple.to_string t)
  | Remove_all t -> Printf.sprintf "remove_all %s" (R.Tuple.to_string t)
  | Add_if_absent t -> Printf.sprintf "add_if_absent %s" (R.Tuple.to_string t)
  | Plus es -> Printf.sprintf "plus [%s]" (show_entries es)
  | Minus es -> Printf.sprintf "minus [%s]" (show_entries es)
  | Negate -> "negate"
  | Scale k -> Printf.sprintf "scale %d" k
  | Filter k -> Printf.sprintf "filter %d" k
  | Map_tuples -> "map_tuples"
  | Pos_part -> "pos_part"
  | Dedup_to_set -> "dedup_to_set"

let keep k t = ((R.Tuple.hash t mod 3) + 3) mod 3 <> k

let halve t = Array.map (function R.Value.Int n -> R.Value.Int (n / 2) | v -> v) t

(* The bag operations one model needs to run a chain. *)
module type BAG = sig
  type t

  val empty : t
  val add : ?count:int -> R.Tuple.t -> t -> t
  val add_get : ?count:int -> R.Tuple.t -> t -> int * t
  val remove : ?count:int -> R.Tuple.t -> t -> t
  val remove_all : R.Tuple.t -> t -> int * t
  val add_if_absent : R.Tuple.t -> t -> t
  val plus : t -> t -> t
  val minus : t -> t -> t
  val negate : t -> t
  val scale : int -> t -> t
  val filter : (R.Tuple.t -> bool) -> t -> t
  val map_tuples : (R.Tuple.t -> R.Tuple.t) -> t -> t
  val pos_part : t -> t
  val dedup_to_set : t -> t
end

module Run (B : BAG) = struct
  let of_entries es = List.fold_left (fun b (t, c) -> B.add ~count:c t b) B.empty es

  (* The bag after [op] and, for [add_get] and [remove_all], the count
     it returned. *)
  let apply op b =
    match op with
    | Add (t, c) -> (None, B.add ~count:c t b)
    | Add_get (t, c) ->
      let before, b = B.add_get ~count:c t b in
      (Some before, b)
    | Remove (t, c) -> (None, B.remove ~count:c t b)
    | Remove_all t ->
      let before, b = B.remove_all t b in
      (Some before, b)
    | Add_if_absent t -> (None, B.add_if_absent t b)
    | Plus es -> (None, B.plus b (of_entries es))
    | Minus es -> (None, B.minus b (of_entries es))
    | Negate -> (None, B.negate b)
    | Scale k -> (None, B.scale k b)
    | Filter k -> (None, B.filter (keep k) b)
    | Map_tuples -> (None, B.map_tuples halve b)
    | Pos_part -> (None, B.pos_part b)
    | Dedup_to_set -> (None, B.dedup_to_set b)
end

(* The reference's one-descent operations are their definitions: a
   count, then an add. *)
module Ref_counted = struct
  include Ref_bag

  let remove_all t b =
    let n = count b t in
    (n, add ~count:(-n) t b)

  let add_if_absent t b = if count b t = 0 then add t b else b
end

module Trie_run = Run (struct
  include R.Bag

  let pos_part = pos_part
end)
module Ref_run = Run (Ref_counted)

(* Each step is an operation and a twist on the second bag [y], which
   starts equal to the first, [x]: none; one extra count (so [y] differs
   from [x]); or a count added and taken away again (so [y] equals [x]
   along another path). *)
let arb_ref_chain =
  QCheck.make
    ~print:(fun steps ->
      String.concat "; "
        (List.map
           (fun (op, twist) ->
             show_op op
             ^
             match twist with
             | None -> ""
             | Some (t, c, cancel) ->
               Printf.sprintf " (y %s %d*%s)" (if cancel then "detours" else "adds") c
                 (R.Tuple.to_string t))
           steps))
    QCheck.Gen.(
      let c1, c2 = Lazy.force colliding in
      let tuple =
        frequency
          [
            (3, map (fun i -> R.Tuple.ints [ i ]) (int_bound 5));
            (1, oneofl [ c1; c2 ]);
            (* four tuples over c1 and c2 share one hash: a bucket of four *)
            (1, oneofl R.Tuple.[ concat c1 c1; concat c1 c2; concat c2 c1; concat c2 c2 ]);
            (1, oneofl (List.concat_map (fun (p, q) -> [ p; q ]) (Lazy.force colliding_wide)));
            (2, oneofl (signed_tuples ()));
          ]
      in
      let count = int_range (-3) 3 in
      let entries = list_size (int_bound 6) (pair tuple count) in
      let op =
        frequency
          [
            (4, map2 (fun t c -> Add (t, c)) tuple count);
            (3, map2 (fun t c -> Add_get (t, c)) tuple count);
            (2, map2 (fun t c -> Remove (t, c)) tuple count);
            (2, map (fun t -> Remove_all t) tuple);
            (2, map (fun t -> Add_if_absent t) tuple);
            (1, map (fun es -> Plus es) entries);
            (1, map (fun es -> Minus es) entries);
            (1, return Negate);
            (1, map (fun k -> Scale k) (int_range (-2) 2));
            (1, map (fun k -> Filter k) (int_bound 2));
            (1, return Map_tuples);
            (1, return Pos_part);
            (1, return Dedup_to_set);
          ]
      in
      let twist =
        frequency
          [
            (3, return None);
            (2, map3 (fun t c cancel -> Some (t, c, cancel)) tuple (oneofl [ -1; 1; 2 ]) bool);
          ]
      in
      list_size (int_bound 30) (pair op twist))

let entries_of fold b = fold (fun t n acc -> (t, n) :: acc) b []

let same_entries = List.equal (fun (t, n) (t', n') -> n = n' && R.Tuple.equal t t')

(* Every observable of the trie bag [b] against the reference bag [r]. *)
let same_bag b r =
  same_entries (entries_of R.Bag.fold b) (entries_of Ref_bag.fold r)
  && same_entries (R.Bag.to_counted_list b) (Ref_bag.to_counted_list r)
  && R.Bag.fingerprint b = Ref_bag.fingerprint r
  && R.Bag.distinct_cardinality b = Ref_bag.distinct_cardinality r
  && R.Bag.has_negative b = Ref_bag.has_negative r

let ref_chain_law steps =
  let twisted twist add y =
    match twist with
    | None -> y
    | Some (t, c, cancel) ->
      let y = add c t y in
      if cancel then add (-c) t y else y
  in
  let rec go (x, y, rx, ry) = function
    | [] -> true
    | (op, twist) :: rest ->
      let got, x' = Trie_run.apply op x and rgot, rx' = Ref_run.apply op rx in
      let y' = twisted twist (fun c t b -> R.Bag.add ~count:c t b) (snd (Trie_run.apply op y)) in
      let ry' =
        twisted twist (fun c t b -> Ref_bag.add ~count:c t b) (snd (Ref_run.apply op ry))
      in
      let eq = R.Bag.equal x' y' in
      got = rgot && same_bag x' rx' && same_bag y' ry'
      && eq = Ref_bag.equal rx' ry'
      && R.Bag.equal x' x = Ref_bag.equal rx' rx
      && R.Bag.equal_since (x, y) x' y' = eq
      && Ref_bag.equal_since (rx, ry) rx' ry' = eq
      &&
      (* keep [x] ≡ [y] for the next step's [equal_since]: a differing [y]
         is rebuilt from [x]'s entries in descending key order *)
      if eq then go (x', y', rx', ry') rest
      else
        let es = entries_of R.Bag.fold x' in
        go (x', Trie_run.of_entries es, rx', Ref_run.of_entries es) rest
  in
  go (R.Bag.empty, R.Bag.empty, Ref_bag.empty, Ref_bag.empty) steps

let qcheck_suite =
  List.map Helpers.qcheck
    [
      law "plus is commutative" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal (R.Bag.plus a b) (R.Bag.plus b a));
      law "plus is associative" 200 arb_bag3 (fun (a, b, c) ->
          R.Bag.equal
            (R.Bag.plus (R.Bag.plus a b) c)
            (R.Bag.plus a (R.Bag.plus b c)));
      law "empty is the identity" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.plus a R.Bag.empty) a);
      law "minus is plus of negation" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal (R.Bag.minus a b) (R.Bag.plus a (R.Bag.negate b)));
      law "negate is an involution" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.negate (R.Bag.negate a)) a);
      law "a - a = 0" 200 arb_bag (fun a ->
          R.Bag.is_empty (R.Bag.minus a a));
      law "paper identity: a + b = (pos a u pos b) - (neg a u neg b)" 200
        arb_bag2 (fun (a, b) ->
          (* with ℤ counts, the signed sum equals the union of positive
             parts minus the union of negative magnitudes *)
          R.Bag.equal (R.Bag.plus a b)
            (R.Bag.minus
               (R.Bag.union (pos_part a) (pos_part b))
               (R.Bag.plus (neg_part a) (neg_part b))));
      law "pos/neg decomposition" 200 arb_bag (fun a ->
          R.Bag.equal a (R.Bag.minus (pos_part a) (neg_part a)));
      law "cardinality is |pos| + |neg|" 200 arb_bag (fun a ->
          R.Bag.cardinality a
          = R.Bag.cardinality (pos_part a)
            + R.Bag.cardinality (neg_part a));
      law "scale distributes over plus" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal
            (R.Bag.scale 3 (R.Bag.plus a b))
            (R.Bag.plus (R.Bag.scale 3 a) (R.Bag.scale 3 b)));
      law "apply_sign Neg negates" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.apply_sign R.Sign.Neg a) (R.Bag.negate a));
      law "dedup_to_set is a positive set" 200 arb_bag (fun a ->
          let s = R.Bag.dedup_to_set a in
          R.Bag.is_set s && not (R.Bag.has_negative s));
      law "exists = a scan, stopping at the first hit" 300 arb_bag (fun a ->
          let entries = R.Bag.to_counted_list a in
          let calls = ref 0 in
          let always _ _ =
            incr calls;
            true
          in
          List.for_all
            (fun k ->
              let p t n = n = k || (n > 0 && R.Tuple.hash t land 3 = 0) in
              R.Bag.exists p a = List.exists (fun (t, n) -> p t n) entries)
            [ -2; -1; 1; 2; 3 ]
          && R.Bag.exists always a = (entries <> [])
          && !calls = min 1 (List.length entries));
      law "equal bags share one fingerprint" 300 arb_paths fingerprint_paths;
      law "equal_since (a0, b0) a b = equal a b" 1000 arb_since equal_since_law;
      law "add_get chains = table model" 500 arb_add_get add_get_law;
      law "remove_all, add_if_absent = count + add" 500 arb_add_get one_descent_law;
      law "equal_since with fresh keys of both signs" 1000 arb_fresh fresh_keys_law;
      law "trie diff = brute-force diff, within its node bound" 1000 arb_fresh changed_law;
      law "bag = AVL reference" 500 arb_ref_chain ref_chain_law;
    ]

let suite =
  [
    Alcotest.test_case "counts" `Quick counts;
    Alcotest.test_case "sign cancellation" `Quick cancellation;
    Alcotest.test_case "pos/neg parts" `Quick pos_neg_parts;
    Alcotest.test_case "plus and minus" `Quick plus_minus;
    Alcotest.test_case "truncating vs signed difference" `Quick
      truncating_diff;
    Alcotest.test_case "duplicate elimination" `Quick dedup;
    Alcotest.test_case "expansion and byte size" `Quick expansion;
    Alcotest.test_case "equal across opposite insertion orders" `Quick opposite_orders;
  ]
  @ qcheck_suite
