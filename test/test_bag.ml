(* Signed-bag unit tests plus qcheck laws: the algebraic properties of
   Section 4.1 that the compensation scheme relies on. *)

open Helpers
module R = Relational

let t1 = R.Tuple.ints [ 1 ]
let t2 = R.Tuple.ints [ 2 ]

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
  let c = R.Bag.of_signed_list [ (R.Sign.Pos, t1); (R.Sign.Neg, t1) ] in
  check_bool "signed list cancels" true (R.Bag.is_empty c)

let pos_neg_parts () =
  let b = R.Bag.add ~count:(-3) t2 (R.Bag.singleton ~count:2 t1) in
  check_bag "pos part" (R.Bag.singleton ~count:2 t1) (R.Bag.pos_part b);
  check_bag "neg part has magnitudes" (R.Bag.singleton ~count:3 t2)
    (R.Bag.neg_part b)

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
  check_bag "truncates at zero" R.Bag.empty (R.Bag.diff_truncated a b);
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

(* One bag's signed entries (counts may be negative) and the material to
   rebuild it along other paths: the same entries in another order, a
   detour of extra entries that are later deleted again, and a second bag
   to add and subtract. *)
let arb_paths =
  let show es =
    String.concat "; "
      (List.map
         (fun (t, c) -> Printf.sprintf "%d*%s" c (R.Tuple.to_string t))
         es)
  in
  QCheck.make
    ~print:(fun (es, permuted, detour, other) ->
      Printf.sprintf "entries [%s] permuted [%s] detour [%s] other %s"
        (show es) (show permuted) (show detour) (R.Bag.to_string other))
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
      R.Bag.minus (R.Bag.pos_part direct) (R.Bag.neg_part direct);
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
           R.Bag.pos_part direct;
           R.Bag.neg_part direct;
           R.Bag.negate (R.Bag.neg_part direct);
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
  let show es =
    String.concat "; "
      (List.map (fun (t, c) -> Printf.sprintf "%d*%s" c (R.Tuple.to_string t)) es)
  in
  QCheck.make
    ~print:(fun (base, detour, chain_a, chain_b) ->
      Printf.sprintf "base [%s] detour [%s] chain_a [%s] chain_b [%s]"
        (show base) (show detour) (show chain_a) (show chain_b))
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
    ~print:(fun steps ->
      String.concat "; "
        (List.map (fun (t, c) -> Printf.sprintf "%d*%s" c (R.Tuple.to_string t)) steps))
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

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
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
               (R.Bag.union (R.Bag.pos_part a) (R.Bag.pos_part b))
               (R.Bag.plus (R.Bag.neg_part a) (R.Bag.neg_part b))));
      law "pos/neg decomposition" 200 arb_bag (fun a ->
          R.Bag.equal a (R.Bag.minus (R.Bag.pos_part a) (R.Bag.neg_part a)));
      law "cardinality is |pos| + |neg|" 200 arb_bag (fun a ->
          R.Bag.cardinality a
          = R.Bag.cardinality (R.Bag.pos_part a)
            + R.Bag.cardinality (R.Bag.neg_part a));
      law "scale distributes over plus" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal
            (R.Bag.scale 3 (R.Bag.plus a b))
            (R.Bag.plus (R.Bag.scale 3 a) (R.Bag.scale 3 b)));
      law "apply_sign Neg negates" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.apply_sign R.Sign.Neg a) (R.Bag.negate a));
      law "dedup_to_set is a positive set" 200 arb_bag (fun a ->
          let s = R.Bag.dedup_to_set a in
          R.Bag.is_set s && not (R.Bag.has_negative s));
      law "equal bags share one fingerprint" 300 arb_paths fingerprint_paths;
      law "equal_since (a0, b0) a b = equal a b" 1000 arb_since equal_since_law;
      law "add_get chains = table model" 500 arb_add_get add_get_law;
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
  ]
  @ qcheck_suite
