(* The benchmark's freshness computation on hand-built traces. *)

module R = Relational
module T = Core.Trace

let bag ns = R.Bag.of_list (List.map (fun n -> R.Tuple.ints [ n ]) ns)

(* The view's source state after update i holds 1..i. *)
let state i = bag (List.init i (fun k -> k + 1))
let upd i = R.Update.insert ~seq:i "r" (R.Tuple.ints [ i ])

let source_update t i =
  T.record t (T.Source_update { updates = [ upd i ]; source_views = [ ("V", state i) ] })

let install t b =
  T.record t (T.Warehouse_note { updates = []; queries = []; installs = [ ("V", [ b ]) ] })

let fresh () = T.create ~initial_views:[ ("V", state 0) ]
let sorted xs = List.sort Int.compare xs
let ints = Alcotest.(list int)
let n = 10

(* SC-like: every update is installed before the next one runs. *)
let sc_like () =
  let t = fresh () in
  for i = 1 to n do
    source_update t i;
    install t (state i)
  done;
  Alcotest.check ints "every lag is 1" (List.init n (fun _ -> 1)) (Perfbench.Lag.of_trace t)

(* ECA-like: one install at the end reflects the whole stream. *)
let eca_like () =
  let t = fresh () in
  for i = 1 to n do
    source_update t i
  done;
  T.record t (T.Quiesce_probe { queries = []; installs = [ ("V", [ state n ]) ] });
  Alcotest.check ints "lag = remaining updates" (List.init n (fun k -> k + 1))
    (sorted (Perfbench.Lag.of_trace t))

(* A state that never matches reflects nothing; a later matching install
   of an older state reflects that prefix, and unreflected updates count
   to the end of the run. *)
let never_matching () =
  let t = fresh () in
  for i = 1 to 4 do
    source_update t i
  done;
  install t (bag [ 99 ]);
  for i = 5 to 6 do
    source_update t i
  done;
  install t (state 2);
  for i = 7 to n do
    source_update t i
  done;
  Alcotest.check ints "prefix at clock 6, the rest to the end"
    [ 1; 2; 3; 4; 5; 5; 6; 6; 7; 8 ]
    (sorted (Perfbench.Lag.of_trace t))

(* An update the view cannot see is reflected at once when the installed
   state already equals the new source state. *)
let invisible_update () =
  let t = fresh () in
  T.record t (T.Source_update { updates = [ upd 1 ]; source_views = [ ("V", state 0) ] });
  for i = 2 to 4 do
    T.record t
      (T.Source_update { updates = [ upd i ]; source_views = [ ("V", bag [ i ]) ] })
  done;
  Alcotest.check ints "invisible update has lag 1, the rest count to the end"
    [ 1; 1; 2; 3 ] (sorted (Perfbench.Lag.of_trace t))

let () =
  Alcotest.run "perfbench"
    [
      ( "lag",
        [
          Alcotest.test_case "SC-like per-update installs" `Quick sc_like;
          Alcotest.test_case "ECA-like install at the end" `Quick eca_like;
          Alcotest.test_case "never-matching state" `Quick never_matching;
          Alcotest.test_case "invisible update" `Quick invisible_update;
        ] );
    ]
