(* The Section-3.1 correctness hierarchy, exercised on hand-built state
   sequences where each level's verdict is known. *)

open Helpers
module R = Relational
module C = Core.Consistency

let s n = bag [ [ n ] ]

let check_report name expected ~source ~warehouse =
  Alcotest.check report_testable name expected
    (C.check ~source_states:source ~warehouse_states:warehouse)

let all_good =
  {
    C.convergent = true;
    weakly_consistent = true;
    consistent = true;
    strongly_consistent = true;
    complete = true;
  }

let identical_sequences () =
  check_report "identical sequences are complete" all_good
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 1; s 2 ]

let skipping_states_is_strong_but_incomplete () =
  check_report "warehouse skips a source state"
    { all_good with complete = false }
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 2 ]

let wrong_final_state () =
  check_report "diverging final state"
    {
      C.convergent = false;
      weakly_consistent = true;
      consistent = true;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 1 ]

let invalid_intermediate_state () =
  (* ws visits a state the source never had: not even weakly consistent,
     though it converges. *)
  check_report "invalid intermediate state"
    {
      C.convergent = true;
      weakly_consistent = false;
      consistent = false;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0; s 2 ]
    ~warehouse:[ s 0; s 9; s 2 ]

(* [last] must be a single tail-recursive pass: convergence only reads
   the final states, and state sequences grow with the trace length. *)
let long_histories_converge () =
  let n = 100_000 in
  let source = List.init n s in
  let convergent ~source_states ~warehouse_states =
    (C.check ~source_states ~warehouse_states).C.convergent
  in
  check_bool "convergent reads only the final states" true
    (convergent ~source_states:source ~warehouse_states:[ s (n - 1) ]);
  check_bool "wrong tail detected" false
    (convergent ~source_states:source ~warehouse_states:[ s 0 ]);
  check_bool "empty warehouse history never converges" false
    (convergent ~source_states:source ~warehouse_states:[]);
  check_bool "empty source history never converges" false
    (convergent ~source_states:[] ~warehouse_states:[ s 0 ])

let out_of_order_states () =
  (* Every warehouse state is valid but the order is reversed: weakly
     consistent, convergent, yet not consistent. *)
  check_report "out of order"
    {
      C.convergent = true;
      weakly_consistent = true;
      consistent = false;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 2; s 1; s 2 ]

let repeated_matches_allowed () =
  (* Consistency allows ss_k <= ss_l: two warehouse states may map to the
     same source state. *)
  check_report "repeats allowed" all_good
    ~source:[ s 0; s 1 ]
    ~warehouse:[ s 0; s 0; s 1 ]

let source_revisits_a_state () =
  (* The source passes through equal states at different times; greedy
     matching must still find an order-preserving assignment. *)
  check_report "revisited state"
    { all_good with complete = false }
    ~source:[ s 0; s 1; s 0; s 2 ]
    ~warehouse:[ s 0; s 0; s 2 ]

let empty_warehouse_history () =
  check_report "no warehouse states at all"
    {
      C.convergent = false;
      weakly_consistent = true;
      consistent = true;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0 ] ~warehouse:[]

let labels () =
  Alcotest.(check string) "complete" "complete" (C.strongest_label all_good);
  Alcotest.(check string)
    "strong" "strongly consistent"
    (C.strongest_label { all_good with complete = false });
  Alcotest.(check string)
    "inconsistent" "inconsistent"
    (C.strongest_label
       {
         C.convergent = false;
         weakly_consistent = false;
         consistent = false;
         strongly_consistent = false;
         complete = false;
       })

(* Reference implementation of the consistency check: exhaustive dynamic
   programming over all order-preserving assignments. The production
   checker uses greedy earliest-match; this property justifies it. *)
let reference_consistent ~source_states ~warehouse_states =
  let src = Array.of_list source_states in
  let wh = Array.of_list warehouse_states in
  let n = Array.length src and m = Array.length wh in
  (* reachable.(j) = set of source indices the first j warehouse states can
     map to for their last match *)
  let rec go j candidates =
    if j >= m then true
    else begin
      let next =
        List.concat_map
          (fun from ->
            List.filter
              (fun i -> R.Bag.equal src.(i) wh.(j))
              (List.init (n - from) (fun d -> from + d)))
          candidates
        |> List.sort_uniq Int.compare
      in
      next <> [] && go (j + 1) next
    end
  in
  m = 0 || go 0 [ 0 ]

let checker_prop =
  QCheck.Test.make ~name:"greedy consistency = exhaustive reference"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "src=%s wh=%s"
           (String.concat "," (List.map string_of_int a))
           (String.concat "," (List.map string_of_int b)))
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6) (int_bound 3))
           (list_size (int_bound 6) (int_bound 3))))
    (fun (src_ids, wh_ids) ->
      let states ids = List.map s ids in
      let source_states = states src_ids and warehouse_states = states wh_ids in
      (C.check ~source_states ~warehouse_states).C.consistent
      = reference_consistent ~source_states ~warehouse_states)

(* Reference for the indexed checker: every verdict decided by all-pairs
   bag comparison, O(S·W) per call. *)
module Quadratic = struct
  let weakly_consistent ~source_states ~warehouse_states =
    List.for_all
      (fun w -> List.exists (fun s -> R.Bag.equal s w) source_states)
      warehouse_states

  let consistent ~source_states ~warehouse_states =
    let src = Array.of_list source_states in
    let n = Array.length src in
    let rec go from = function
      | [] -> true
      | w :: rest ->
        let rec find j =
          if j >= n then None
          else if R.Bag.equal src.(j) w then Some j
          else find (j + 1)
        in
        (match find from with
         | None -> false
         | Some j -> go j rest)
    in
    go 0 warehouse_states

  let covers_all_source_states ~source_states ~warehouse_states =
    List.for_all
      (fun s -> List.exists (fun w -> R.Bag.equal w s) warehouse_states)
      source_states

  let convergent ~source_states ~warehouse_states =
    match (List.rev source_states, List.rev warehouse_states) with
    | s :: _, w :: _ -> R.Bag.equal s w
    | _ -> false

  let check ~source_states ~warehouse_states =
    let convergent = convergent ~source_states ~warehouse_states in
    let consistent = consistent ~source_states ~warehouse_states in
    let strongly_consistent = consistent && convergent in
    {
      C.convergent;
      weakly_consistent = weakly_consistent ~source_states ~warehouse_states;
      consistent;
      strongly_consistent;
      complete =
        strongly_consistent
        && covers_all_source_states ~source_states ~warehouse_states;
    }
end

(* States over a three-value alphabet, each built along its own path —
   inserted in a shuffled order, or through an insert/delete round trip —
   so that equal states are distinct objects with differently shaped
   trees; a repeated id sometimes reuses the previous object outright,
   the way the oracle passes unchanged snapshots through. Short lists
   over few values make repeats, revisits, out-of-order states and empty
   warehouse histories all common. *)
let state_seq_gen =
  let open QCheck.Gen in
  let build id =
    (* ids 0 and 1 share a size, so size alone cannot tell them apart *)
    let rows = List.init (1 + (id / 2)) (fun k -> [ k; id ]) in
    oneof
      [
        map bag (shuffle_l rows);
        return
          (R.Bag.remove
             (R.Tuple.ints [ 9; 9 ])
             (R.Bag.add (R.Tuple.ints [ 9; 9 ]) (bag rows)));
      ]
  in
  let rec states prev = function
    | [] -> return []
    | id :: ids ->
      let* st =
        match prev with
        | Some (pid, pst) when pid = id -> oneof [ return pst; build id ]
        | _ -> build id
      in
      let+ rest = states (Some (id, st)) ids in
      st :: rest
  in
  let seq size = list_size size (int_bound 2) >>= states None in
  pair (seq (int_range 0 7)) (seq (int_range 0 7))

let show_states (src, wh) =
  let show l = String.concat " " (List.map R.Bag.to_string l) in
  Printf.sprintf "src=[%s] wh=[%s]" (show src) (show wh)

(* Every verdict of the report, coverage included: [complete] is the
   coverage verdict whenever the run is strongly consistent, the only
   case in which the judge decides it. *)
let agrees_with_quadratic (source_states, warehouse_states) =
  let r = C.check ~source_states ~warehouse_states in
  r = Quadratic.check ~source_states ~warehouse_states
  && r.C.weakly_consistent
     = Quadratic.weakly_consistent ~source_states ~warehouse_states
  && r.C.consistent = Quadratic.consistent ~source_states ~warehouse_states
  && ((not r.C.strongly_consistent)
     || r.C.complete
        = Quadratic.covers_all_source_states ~source_states ~warehouse_states)

(* Both sequences descend from one ancestor by small edits, the way the
   oracle builds each snapshot from the previous one and SC each install
   from the previous install, so the judge confirms its matches relative
   to the last confirmed pair. The source applies one edit per step over
   a four-tuple alphabet, so values revisit earlier ones, or passes the
   previous object through unchanged. The warehouse visits source
   positions (mostly in order, sometimes jumping ahead or back, so a
   warehouse state can equal a later source state), reaching each by
   replaying or undoing the edits in between on its own previous state;
   a repeated position reuses the object outright, and a stray tuple
   makes a state no source state equals until the next step removes it.
   The ancestor holds 100–300 tuples, so a confirmation spanning a few
   edits stays on [Bag.equal_since]'s diff and a long jump exceeds its
   budget. *)
let descended_gen =
  let open QCheck.Gen in
  let alphabet = List.init 4 (fun k -> R.Tuple.ints [ 100 + k ]) in
  let stray = R.Tuple.ints [ 999 ] in
  let* ancestor =
    map (fun n -> bag (List.init n (fun k -> [ k; k mod 3 ]))) (int_range 100 300)
  in
  let edit_gen =
    frequency
      [
        (4, map2 (fun t c -> Some (t, c)) (oneofl alphabet) (oneofl [ 1; -1 ]));
        (1, return None);
      ]
  in
  let* edits = array_size (int_bound 10) edit_gen in
  let apply b = function
    | Some (t, c) -> R.Bag.add ~count:c t b
    | None -> b
  in
  let undo b = function
    | Some (t, c) -> R.Bag.add ~count:(-c) t b
    | None -> b
  in
  let source =
    Array.fold_left (fun acc e -> apply (List.hd acc) e :: acc) [ ancestor ] edits
    |> List.rev
  in
  let n = Array.length edits in
  let* visits = list_size (int_bound 10) (int_bound n) in
  let* sorted = bool in
  let visits = if sorted then List.sort Int.compare visits else visits in
  let* strays = list_repeat (List.length visits) (map (fun k -> k = 0) (int_bound 7)) in
  (* [at] is the source position [w] equals, when [dirty] is false *)
  let rec walk w at dirty acc = function
    | [] -> List.rev acc
    | (k, is_stray) :: rest ->
      let w = if dirty then R.Bag.remove stray w else w in
      let w =
        if k = at && not dirty then w
        else if k >= at then
          List.fold_left apply w (Array.to_list (Array.sub edits at (k - at)))
        else
          List.fold_left undo w
            (List.rev (Array.to_list (Array.sub edits k (at - k))))
      in
      let w = if is_stray then R.Bag.add stray w else w in
      walk w k is_stray (w :: acc) rest
  in
  let warehouse = walk ancestor 0 false [] (List.combine visits strays) in
  let* rebuilt_start = bool in
  let warehouse =
    match warehouse with
    | w :: rest when rebuilt_start ->
      (* the same first value built along another path *)
      bag_minus (R.Bag.plus w (bag [ [ 7; 7 ] ])) (bag [ [ 7; 7 ] ]) :: rest
    | ws -> ws
  in
  return (source, warehouse)

let indexed_equals_quadratic_prop =
  QCheck.Test.make ~name:"indexed check = quadratic reference" ~count:2000
    (QCheck.make ~print:show_states
       (QCheck.Gen.oneof [ state_seq_gen; descended_gen ]))
    agrees_with_quadratic

(* 50k source states and a warehouse that trails them by a constant
   offset, then catches up: every verdict holds. An all-pairs checker
   makes ~10⁹ bag comparisons here; the indexed one makes one per state. *)
let long_history_lagging_by_offset () =
  let n = 50_000 and offset = 7 in
  let source = List.init n s in
  let warehouse = List.init (n + offset) (fun i -> s (max 0 (i - offset))) in
  check_report "trailing warehouse is complete" all_good ~source ~warehouse;
  (* swapping two adjacent warehouse states breaks only the order *)
  let swapped =
    List.mapi
      (fun i w ->
        if i = n / 2 then s (n / 2 - offset + 1)
        else if i = (n / 2) + 1 then s (n / 2 - offset)
        else w)
      warehouse
  in
  check_report "one swap is caught"
    {
      C.convergent = true;
      weakly_consistent = true;
      consistent = false;
      strongly_consistent = false;
      complete = false;
    }
    ~source ~warehouse:swapped

let suite =
  [
    Alcotest.test_case "identical sequences" `Quick identical_sequences;
    Alcotest.test_case "skipped states: strong, not complete" `Quick
      skipping_states_is_strong_but_incomplete;
    Alcotest.test_case "wrong final state" `Quick wrong_final_state;
    Alcotest.test_case "invalid intermediate state" `Quick
      invalid_intermediate_state;
    Alcotest.test_case "long histories converge" `Quick
      long_histories_converge;
    Alcotest.test_case "out-of-order states" `Quick out_of_order_states;
    Alcotest.test_case "repeated matches allowed" `Quick
      repeated_matches_allowed;
    Alcotest.test_case "source revisits a state" `Quick
      source_revisits_a_state;
    Alcotest.test_case "empty warehouse history" `Quick
      empty_warehouse_history;
    Alcotest.test_case "strongest labels" `Quick labels;
    Alcotest.test_case "long history lagging by an offset" `Quick
      long_history_lagging_by_offset;
  ]
  @ List.map Helpers.qcheck
      [ checker_prop; indexed_equals_quadratic_prop ]
