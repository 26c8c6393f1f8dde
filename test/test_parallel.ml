(* The domain pool (Parallel.Pool) and the domain-safety of the shared
   compiled-plan cache: Pool.map must behave exactly like a sequential
   Array.map (order, values, exception choice) at any worker count, and
   N domains concurrently compiling overlapping view skeletons must all
   agree with the naive reference evaluator while the per-domain cache
   statistics aggregate without tearing. *)

open Helpers
module R = Relational
module P = Parallel.Pool

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let map_matches_sequential () =
  List.iter
    (fun workers ->
      P.with_pool ~workers (fun pool ->
          List.iter
            (fun n ->
              let input = Array.init n (fun i -> i) in
              let f i = (i * 7919) lxor (i lsl 3) in
              Alcotest.(check (array int))
                (Printf.sprintf "workers=%d n=%d" workers n)
                (Array.map f input) (P.map pool f input))
            [ 0; 1; 2; 3; 17; 100; 1000 ]))
    [ 1; 2; 4; 8 ]

let map_list_preserves_order () =
  P.with_pool ~workers:4 (fun pool ->
      Alcotest.(check (list string))
        "order kept"
        [ "0!"; "1!"; "2!"; "3!"; "4!" ]
        (P.map_list pool
           (fun i -> string_of_int i ^ "!")
           [ 0; 1; 2; 3; 4 ]))

let pool_is_reusable () =
  P.with_pool ~workers:3 (fun pool ->
      for round = 1 to 5 do
        let out = P.map pool (fun i -> i + round) (Array.init 64 Fun.id) in
        check_int
          (Printf.sprintf "round %d" round)
          (63 + round)
          out.(63)
      done)

let exceptions_propagate_lowest_index () =
  List.iter
    (fun workers ->
      P.with_pool ~workers (fun pool ->
          match
            P.map pool
              (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
              (Array.init 40 Fun.id)
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            (* sequential semantics: the first failing element wins *)
            check_int (Printf.sprintf "workers=%d" workers) 2 i))
    [ 1; 4 ]

let par_knob_parsing () =
  Alcotest.(check (option int)) "plain" (Some 4) (P.parse_workers "4");
  Alcotest.(check (option int)) "trimmed" (Some 12) (P.parse_workers " 12 ");
  Alcotest.(check (option int)) "zero" None (P.parse_workers "0");
  Alcotest.(check (option int)) "negative" None (P.parse_workers "-3");
  Alcotest.(check (option int)) "garbage" None (P.parse_workers "many");
  Alcotest.(check (option int)) "empty" None (P.parse_workers "");
  check_bool "default is at least 1" true (P.default_workers () >= 1)

(* ------------------------------------------------------------------ *)
(* Plan-cache stress: concurrent compilation across domains            *)
(* ------------------------------------------------------------------ *)

(* A family of overlapping skeletons: every task evaluates one of these
   views (plus its negation-as-difference) over its own database, so
   several domains keep compiling and hitting the same skeletons. *)
let stress_views =
  [
    view_w ();
    view_wy ();
    view_w3 ();
    R.View.natural_join ~name:"V"
      ~extra_cond:(R.Parser.parse_predicate "r1.W > 2")
      ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Y" ]
      [ r1; r2 ];
    R.View.natural_join ~name:"V"
      ~extra_cond:(R.Parser.parse_predicate "r2.Y != 1")
      ~proj:[ R.Attr.unqualified "W" ]
      [ r1; r2; r3 ];
  ]

let stress_db seed =
  let st = rng seed in
  let rows n = List.init n (fun _ -> [ Random.State.int st 5; Random.State.int st 5 ]) in
  db_of [ (r1, rows 6); (r2, rows 6); (r3, rows 6) ]

let stress_task i =
  let view = List.nth stress_views (i mod List.length stress_views) in
  let db = stress_db i in
  let q = R.Query.of_view view in
  let ok =
    R.Bag.equal (R.Eval.query db q) (Ref_eval.naive_query db q)
    && R.Bag.equal
         (R.Eval.query db (R.Query.minus R.Query.empty q))
         (Ref_eval.naive_query db (R.Query.minus R.Query.empty q))
  in
  (* delta terms share the view's plan — exercise the cache-hit path too *)
  let u = ins "r1" [ i mod 5; (i + 1) mod 5 ] in
  let delta = R.Query.view_delta view u in
  ok
  && R.Bag.equal (R.Eval.query db delta) (Ref_eval.naive_query db delta)

let plan_cache_stress () =
  let n_domains = 4 and per_domain = 50 in
  (* Domains are spawned directly (not through a pool) so each one is
     guaranteed to compile the overlapping skeletons itself — the caller
     of Pool.map could otherwise drain the whole queue alone on a busy
     single-core box and leave nothing concurrent to observe. *)
  let results =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            Array.init per_domain (fun i -> stress_task ((d * per_domain) + i))))
    |> List.map Domain.join
    |> Array.concat
  in
  Array.iteri
    (fun i ok ->
      check_bool (Printf.sprintf "task %d: planned = naive" i) true ok)
    results

let suite =
  [
    Alcotest.test_case "Pool.map = sequential map (order and values)" `Quick
      map_matches_sequential;
    Alcotest.test_case "Pool.map_list preserves order" `Quick
      map_list_preserves_order;
    Alcotest.test_case "a pool is reusable across maps" `Quick
      pool_is_reusable;
    Alcotest.test_case "exceptions propagate like a sequential map" `Quick
      exceptions_propagate_lowest_index;
    Alcotest.test_case "PAR knob parsing" `Quick par_knob_parsing;
    Alcotest.test_case "plan cache under concurrent compilation = naive"
      `Quick plan_cache_stress;
  ]
