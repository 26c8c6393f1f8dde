(* Scale-out machinery: the N-source workload generator feeding the
   federation engine, the O(active) ready-set event loop, per-edge
   coalescing, and the backpressure / fairness policies. The 40-seed
   sweep is the correctness anchor: across algorithms, fault profiles,
   transports and skews, every per-source view must land exactly on its
   source's state. *)

open Helpers
module R = Relational
module E = Core.Engine
module S = Core.Scheduler
module M = Core.Metrics
module W = Workload

let scaled = W.Scenarios.scaled

let run_scaled ?policy ?fault ?fault_seed ?reliable ?batch_size ?coalesce
    ?track_scale ?(algorithm = "eca") (w : W.Scenarios.scaled) =
  E.run ?schedule:policy ?batch_size ?coalesce ?track_scale
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:(sites_of ?fault ?fault_seed ?reliable w.W.Scenarios.sources)
    ~views:(List.map R.Viewdef.simple w.W.Scenarios.views)
    ~updates:w.W.Scenarios.updates ()

let scale_of (r : E.result) =
  match r.E.metrics.M.scale with
  | Some s -> s
  | None -> Alcotest.fail "expected metrics.scale (track_scale was on)"

let check_exact name (r : E.result) =
  List.iter
    (fun (view, report) ->
      check_bool
        (Printf.sprintf "%s: %s strongly consistent" name view)
        true report.Core.Consistency.strongly_consistent;
      check_bag
        (Printf.sprintf "%s: %s matches its source" name view)
        (List.assoc view r.E.final_source_views)
        (List.assoc view r.E.final_mvs))
    r.E.reports

(* --- the generator itself --------------------------------------------- *)

let generator_shape () =
  let w = scaled ~c:3 ~updates_per_source:4 ~n:5 () in
  check_int "five sources" 5 (List.length w.W.Scenarios.sources);
  check_int "one view per source" 5 (List.length w.W.Scenarios.views);
  check_int "n * updates_per_source updates" 20
    (List.length w.W.Scenarios.updates);
  (* deterministic from the seed *)
  let w' = scaled ~c:3 ~updates_per_source:4 ~n:5 () in
  check_bool "same seed, same updates" true
    (List.equal update_equal w.W.Scenarios.updates w'.W.Scenarios.updates);
  (* growing n keeps the existing sources' databases intact *)
  let big = scaled ~c:3 ~updates_per_source:4 ~n:9 () in
  List.iter2
    (fun (name, _, db) (name', _, db') ->
      check_bool (name ^ " name stable") true (String.equal name name');
      List.iter
        (fun rel ->
          check_bag
            (Printf.sprintf "%s/%s unchanged under growth" name rel)
            (R.Db.contents db rel) (R.Db.contents db' rel))
        (R.Db.relation_names db))
    w.W.Scenarios.sources
    (List.filteri (fun i _ -> i < 5) big.W.Scenarios.sources)

let skew_concentrates_on_source_zero () =
  let count_for (w : W.Scenarios.scaled) prefix =
    List.length
      (List.filter
         (fun (u : R.Update.t) ->
           String.length u.R.Update.rel >= String.length prefix
           && String.equal
                (String.sub u.R.Update.rel 0 (String.length prefix))
                prefix)
         w.W.Scenarios.updates)
  in
  let uniform = scaled ~c:3 ~updates_per_source:10 ~skew:0.0 ~n:8 () in
  let hot = scaled ~c:3 ~updates_per_source:10 ~skew:2.5 ~n:8 () in
  check_bool "hot source dominates under skew" true
    (count_for hot "s0_" > 2 * count_for uniform "s0_");
  check_bool "skewed stream keeps the same length" true
    (List.length hot.W.Scenarios.updates
    = List.length uniform.W.Scenarios.updates)

(* --- the 40-seed sweep: algorithms x faults x transport x skew --------- *)

let sweep () =
  let algorithms = [| "eca"; "eca-key"; "eca-local" |] in
  let profiles = Array.of_list W.Scenarios.fault_profiles in
  for k = 0 to 39 do
    let algorithm = algorithms.(k mod 3) in
    let pname, profile = profiles.(k mod Array.length profiles) in
    (* raw transport only where delivery is perfect: loss or duplication
       without the reliable sublayer is *supposed* to break maintenance *)
    let reliable = (not (String.equal pname "clean")) || k mod 2 = 0 in
    let skew = if k mod 5 = 0 then 2.0 else 0.0 in
    let w = scaled ~c:3 ~updates_per_source:2 ~skew ~seed:k ~n:10 () in
    let r =
      run_scaled
        ~policy:(S.Random (1000 + k))
        ~fault:profile ~fault_seed:(31 * k) ~reliable ~algorithm w
    in
    check_exact
      (Printf.sprintf "seed %d (%s, %s, %s)" k algorithm pname
         (if reliable then "reliable" else "raw"))
      r;
    check_int
      (Printf.sprintf "seed %d: every update executed" k)
      (List.length w.W.Scenarios.updates)
      r.E.metrics.M.updates
  done

(* --- per-edge coalescing ----------------------------------------------- *)

(* A stream with long same-relation runs on the hot source: coalescing
   must ship strictly fewer frames and land on the identical state. *)
let coalescing_workload () =
  let w = scaled ~c:4 ~updates_per_source:0 ~n:4 () in
  let updates =
    List.init 12 (fun k -> ins "s0_r1" [ 100 + k; 1 ])
    @ [ ins "s1_r1" [ 100; 0 ] ]
    @ List.init 6 (fun k -> ins "s0_r2" [ 1; 200 + k ])
    @ List.init 4 (fun k -> del "s0_r1" [ 100 + k; 1 ])
  in
  { w with W.Scenarios.updates }

let coalescing_reduces_messages () =
  let w = coalescing_workload () in
  let plain = run_scaled ~coalesce:false ~track_scale:true w in
  let coalesced = run_scaled ~coalesce:true ~track_scale:true w in
  check_exact "uncoalesced" plain;
  check_exact "coalesced" coalesced;
  List.iter
    (fun (view, b) ->
      check_bag ("coalescing preserves " ^ view) b
        (List.assoc view coalesced.E.final_mvs))
    plain.E.final_mvs;
  check_int "same updates executed" plain.E.metrics.M.updates
    coalesced.E.metrics.M.updates;
  let wire (r : E.result) = r.E.metrics.M.delivery.M.wire_messages in
  check_bool
    (Printf.sprintf "strictly fewer frames shipped (%d < %d)" (wire coalesced)
       (wire plain))
    true
    (wire coalesced < wire plain);
  let s = scale_of coalesced in
  check_bool "coalesced batches were produced" true (s.M.coalesced_batches > 0);
  check_bool "notes were absorbed into batches" true
    (s.M.coalesced_notes > s.M.coalesced_batches);
  check_int "off means off" 0 (scale_of plain).M.coalesced_notes

let coalescing_respects_class_boundaries () =
  (* runs break at relation and kind changes: the 4-part stream above
     cannot collapse below 5 notifications (s1's interleaved insert cuts
     nothing — it rides its own edge) *)
  let w = coalescing_workload () in
  let r = run_scaled ~coalesce:true ~track_scale:true w in
  let s = scale_of r in
  (* 12-insert run + 6-insert run + 4-delete run = 3 batches; the lone
     s1 insert stays a plain note *)
  check_int "three maximal update-class runs" 3 s.M.coalesced_batches;
  check_int "absorbed all but the run heads" (12 - 1 + (6 - 1) + (4 - 1))
    s.M.coalesced_notes

(* --- backpressure and fairness ----------------------------------------- *)

let hot_workload ?(updates_per_source = 6) () =
  scaled ~c:4 ~updates_per_source ~skew:3.0 ~seed:7 ~n:6 ()

let backpressure_bounds_inflight () =
  let w = hot_workload () in
  let unbounded = run_scaled ~policy:S.Worst_case ~track_scale:true w in
  let bounded =
    run_scaled ~policy:(S.Bounded_inflight 2) ~track_scale:true w
  in
  check_exact "bounded run stays exact" bounded;
  let peak r = (scale_of r).M.inflight_max in
  check_bool
    (Printf.sprintf "updates-first floods the hot edge (%d)" (peak unbounded))
    true
    (peak unbounded > 4);
  check_bool
    (Printf.sprintf "backpressure caps it (%d <= 3)" (peak bounded))
    true
    (peak bounded <= 3);
  check_bool "strictly below the flood" true (peak bounded < peak unbounded)

let weighted_fair_stays_exact () =
  let w = hot_workload () in
  List.iter
    (fun quantum ->
      let r =
        run_scaled ~policy:(S.Weighted_fair quantum) ~track_scale:true w
      in
      check_exact (Printf.sprintf "weighted-fair q=%d" quantum) r)
    [ 1; 2; 4 ]

let invalid_policy_parameters_rejected () =
  List.iter
    (fun policy ->
      match Core.Scheduler.create policy with
      | exception Core.Scheduler.Schedule_error _ -> ()
      | _ -> Alcotest.fail "expected Schedule_error")
    [
      Core.Scheduler.Bounded_inflight 0;
      Core.Scheduler.Bounded_inflight (-1);
      Core.Scheduler.Weighted_fair 0;
    ]

(* --- O(active): the ready sets keep per-step cost off N ---------------- *)

let active_set_stays_small () =
  (* Under the draining policy only one edge is ever busy, however many
     sources exist: the active set — what each scheduler pick and each
     transport tick iterate — must not grow with N. *)
  let w = scaled ~c:2 ~updates_per_source:1 ~seed:3 ~n:100 () in
  let r = run_scaled ~policy:S.Best_case ~track_scale:true w in
  check_exact "100 sources, drained" r;
  check_bool
    (Printf.sprintf "active_max independent of N (%d <= 2)"
       (scale_of r).M.active_max)
    true
    ((scale_of r).M.active_max <= 2)

let step_count_scales_with_updates_not_sources () =
  (* The same number of updates costs (about) the same number of steps at
     10x the fan-out — the regression pin for the O(N)-per-step readiness
     rebuild this engine used to pay. *)
  let steps n updates_per_source =
    let w = scaled ~c:2 ~updates_per_source ~seed:3 ~n () in
    let r = run_scaled ~policy:S.Best_case w in
    (r.E.metrics.M.steps, r.E.metrics.M.updates)
  in
  let s10, u10 = steps 10 10 in
  let s100, u100 = steps 100 1 in
  check_int "both runs execute 100 updates" u10 u100;
  check_bool
    (Printf.sprintf "steps stay linear in updates (%d vs %d)" s100 s10)
    true
    (s100 < 2 * s10)

let suite =
  [
    Alcotest.test_case "generator shape and determinism" `Quick
      generator_shape;
    Alcotest.test_case "skew knob concentrates the stream" `Quick
      skew_concentrates_on_source_zero;
    Alcotest.test_case "40-seed sweep: algorithms x faults x transport"
      `Quick sweep;
    Alcotest.test_case "coalescing ships fewer frames, same states" `Quick
      coalescing_reduces_messages;
    Alcotest.test_case "coalescing respects update-class boundaries" `Quick
      coalescing_respects_class_boundaries;
    Alcotest.test_case "backpressure bounds per-edge inflight" `Quick
      backpressure_bounds_inflight;
    Alcotest.test_case "weighted-fair rotation stays exact" `Quick
      weighted_fair_stays_exact;
    Alcotest.test_case "invalid policy parameters rejected" `Quick
      invalid_policy_parameters_rejected;
    Alcotest.test_case "active set stays small under drain" `Quick
      active_set_stays_small;
    Alcotest.test_case "steps scale with updates, not sources" `Quick
      step_count_scales_with_updates_not_sources;
  ]
