(* The observability layer: collector semantics, span well-formedness on
   real runs, the JSONL trace schema, the staleness gauge against the
   consistency oracle — and, just as load-bearing, the spans-off path
   being byte-identical to an unobserved run. *)

open Helpers
module R = Relational
module O = Observe

(* ------------------------------------------------------------------ *)
(* Collector unit semantics                                            *)
(* ------------------------------------------------------------------ *)

let collector_semantics () =
  let c = O.Collector.create ~capacity:2 () in
  let id = O.Collector.open_span c O.Span.Query_send ~site:"s" ~ids:[ 1 ] ~now:3 () in
  check_int "one span open" 1 (O.Collector.open_count c);
  (match O.Collector.close_span c id ~now:7 with
   | Some s -> check_int "duration = close - open" 4 (O.Span.duration s)
   | None -> Alcotest.fail "close of an open span failed");
  check_bool "double close is rejected" true
    (O.Collector.close_span c id ~now:8 = None);
  O.Collector.gauge c ~name:"g" ~key:"k" ~now:1 ~value:5;
  O.Collector.gauge c ~name:"g" ~key:"k" ~now:2 ~value:6;
  check_int "ring keeps its capacity" 2 (List.length (O.Collector.events c));
  check_int "overflow is counted, not fatal" 1 (O.Collector.dropped c);
  ignore (O.Collector.open_span c O.Span.Update_note ~site:"s" ~ids:[] ~now:9 ());
  O.Collector.close_all c ~now:10;
  check_int "close_all forces the leftover" 1 (O.Collector.forced_closes c);
  check_int "nothing stays open" 0 (O.Collector.open_count c)

(* ------------------------------------------------------------------ *)
(* Minimal JSONL field extraction (our own flat one-line objects)       *)
(* ------------------------------------------------------------------ *)

let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let int_field line key =
  match find_sub line ("\"" ^ key ^ "\":") with
  | None -> Alcotest.failf "field %s missing in %s" key line
  | Some i ->
    let n = String.length line in
    let j = ref i in
    if !j < n && line.[!j] = '-' then incr j;
    while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
    int_of_string (String.sub line i (!j - i))

let str_field line key =
  match find_sub line ("\"" ^ key ^ "\":\"") with
  | None -> Alcotest.failf "field %s missing in %s" key line
  | Some i -> String.sub line i (String.index_from line i '"' - i)

let ids_field line =
  match find_sub line "\"ids\":[" with
  | None -> Alcotest.failf "ids missing in %s" line
  | Some i ->
    let stop = String.index_from line i ']' in
    let body = String.sub line i (stop - i) in
    if body = "" then []
    else List.map int_of_string (String.split_on_char ',' body)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ------------------------------------------------------------------ *)
(* Shared run configs                                                  *)
(* ------------------------------------------------------------------ *)

(* [~observe:true] runs with a fresh collector. *)
let collector observe = if observe then Some (O.Collector.create ()) else None

let run_chaos ?(reliable = true) ?(observe = false) ?(oc = collector observe)
    ~algorithm ~seed () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:12 ~j:3 ~k_updates:8 ~insert_ratio:0.6 ~seed ())
  in
  Core.Engine.run ~schedule:(Core.Scheduler.Random seed) ?observe:oc
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:
      [
        source ~fault:Workload.Scenarios.chaos_profile ~fault_seed:(seed * 7)
          ~reliable db;
      ]
    ~views:[ R.Viewdef.simple view ] ~updates ()

let run_keyed_chaos ?(observe = false) ~algorithm ~seed () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed
      (Workload.Spec.make ~c:12 ~j:3 ~k_updates:8 ~insert_ratio:0.5 ~seed ())
  in
  Core.Engine.run ~schedule:(Core.Scheduler.Random seed)
    ?observe:(collector observe)
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:
      [
        source ~fault:Workload.Scenarios.chaos_profile ~fault_seed:(seed * 7)
          ~reliable:true db;
      ]
    ~views:[ R.Viewdef.simple view ] ~updates ()

let observe_of (m : Core.Metrics.t) =
  match m.Core.Metrics.observe with
  | Some o -> o
  | None -> Alcotest.fail "observed run carries no observe summary"

(* ------------------------------------------------------------------ *)
(* Spans off = byte-identical output; goldens stay pinned              *)
(* ------------------------------------------------------------------ *)

let scrub (r : Core.Engine.result) =
  {
    r with
    Core.Engine.metrics =
      { r.Core.Engine.metrics with Core.Metrics.observe = None };
  }

let spans_off_is_byte_identical () =
  let off = run_chaos ~algorithm:"eca" ~seed:5 () in
  let on = run_chaos ~observe:true ~algorithm:"eca" ~seed:5 () in
  check_bool "observed run carries a summary" true
    (on.Core.Engine.metrics.Core.Metrics.observe <> None);
  check_bool "unobserved run carries none" true
    (off.Core.Engine.metrics.Core.Metrics.observe = None);
  Alcotest.(check string)
    "erasing the summary leaves the two runs byte-identical"
    (Core.Json_export.result off)
    (Core.Json_export.result (scrub on))

(* The committed golden traces run through the default (unobserved)
   path; re-checking them from this suite pins that wiring the
   observability layer into the engine left that path untouched. *)
let goldens_stay_pinned () =
  List.iter (fun case -> Test_golden.check_case case ()) Test_golden.cases

(* ------------------------------------------------------------------ *)
(* A 3-source ECA chaos federation exporting a JSONL trace             *)
(* ------------------------------------------------------------------ *)

let emp = R.Schema.of_names "emp" [ "EID"; "DID" ]
let dept = R.Schema.of_names "dept" [ "DID"; "BUDGET" ]
let ord = R.Schema.of_names "ord" [ "OID"; "CID" ]
let cust = R.Schema.of_names "cust" [ "CID"; "SEGMENT" ]
let itm = R.Schema.of_names "itm" [ "IID"; "PID" ]
let prd = R.Schema.of_names "prd" [ "PID"; "TAG" ]

let fed3_sources () =
  [
    ( "hr",
      None,
      R.Db.of_list
        [
          (emp, bag [ [ 1; 10 ]; [ 2; 20 ] ]);
          (dept, bag [ [ 10; 500 ]; [ 20; 900 ] ]);
        ] );
    ( "sales",
      None,
      R.Db.of_list
        [ (ord, bag [ [ 100; 7 ] ]); (cust, bag [ [ 7; 1 ]; [ 8; 2 ] ]) ] );
    ( "inv",
      None,
      R.Db.of_list [ (itm, bag [ [ 1; 3 ] ]); (prd, bag [ [ 3; 9 ]; [ 4; 2 ] ]) ]
    );
  ]

let fed3_views =
  [
    R.View.natural_join ~name:"emp_budget"
      ~proj:[ R.Attr.unqualified "EID"; R.Attr.unqualified "BUDGET" ]
      [ emp; dept ];
    R.View.natural_join ~name:"ord_segment"
      ~proj:[ R.Attr.unqualified "OID"; R.Attr.unqualified "SEGMENT" ]
      [ ord; cust ];
    R.View.natural_join ~name:"itm_tag"
      ~proj:[ R.Attr.unqualified "IID"; R.Attr.unqualified "TAG" ]
      [ itm; prd ];
  ]

let fed3_view_names = [ "emp_budget"; "ord_segment"; "itm_tag" ]

let fed3_updates =
  [
    ins "emp" [ 3; 20 ];
    ins "ord" [ 101; 8 ];
    ins "itm" [ 2; 4 ];
    del "emp" [ 1; 10 ];
    ins "cust" [ 9; 3 ];
    del "ord" [ 100; 7 ];
    ins "prd" [ 5; 6 ];
    ins "dept" [ 30; 100 ];
    del "itm" [ 1; 3 ];
  ]

let run_fed3 ~trace_out () =
  let observe = O.Collector.create () in
  let result =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 11) ~observe
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:
        (sites_of ~fault:Workload.Scenarios.chaos_profile ~fault_seed:9
           ~reliable:true (fed3_sources ()))
      ~views:(List.map R.Viewdef.simple fed3_views) ~updates:fed3_updates ()
  in
  O.Collector.write_file trace_out observe;
  result

let jsonl_trace_validates () =
  let path = Filename.temp_file "vmw_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let result = run_fed3 ~trace_out:path () in
      match read_lines path with
      | [] -> Alcotest.fail "trace file is empty"
      | meta :: events ->
        Alcotest.(check string) "header line" "meta" (str_field meta "type");
        check_int "schema version" 1 (int_field meta "version");
        Alcotest.(check string) "logical clock" "engine-step"
          (str_field meta "clock");
        check_int "no span left open" 0 (int_field meta "open");
        check_int "no ring overflow" 0 (int_field meta "dropped");
        check_int "reliable transport loses no closing events" 0
          (int_field meta "forced_closes");
        let spans, gauges =
          List.partition (fun l -> str_field l "type" = "span") events
        in
        List.iter
          (fun g ->
            Alcotest.(check string) "only staleness gauges" "staleness"
              (str_field g "gauge"))
          gauges;
        check_int "meta counts every span" (int_field meta "spans")
          (List.length spans);
        check_int "meta counts every gauge" (int_field meta "gauges")
          (List.length gauges);
        let kind_names = List.map O.Span.kind_name O.Span.all_kinds in
        List.iter
          (fun l ->
            check_bool "span kind is in the taxonomy" true
              (List.mem (str_field l "kind") kind_names);
            check_bool "span clocks ordered" true
              (int_field l "close" >= int_field l "open");
            check_bool "span names a site" true (str_field l "site" <> ""))
          spans;
        let ids = List.map (fun l -> int_field l "id") spans in
        check_int "span ids unique" (List.length ids)
          (List.length (List.sort_uniq compare ids));
        let by_kind k =
          List.filter (fun l -> str_field l "kind" = O.Span.kind_name k) spans
        in
        check_bool "sources applied updates" true (by_kind O.Span.Source_apply <> []);
        check_bool "notifications flew" true (by_kind O.Span.Update_note <> []);
        check_bool "queries flew" true (by_kind O.Span.Query_send <> []);
        check_bool "quiescence was probed" true (by_kind O.Span.Quiescence <> []);
        (* Every answer flight nests inside its query's round trip — the
           UQS residency span opened at ship and closed at processing. *)
        let queries = by_kind O.Span.Query_send in
        List.iter
          (fun a ->
            match ids_field a with
            | [ gid ] -> (
              match
                List.find_opt (fun q -> ids_field q = [ gid ]) queries
              with
              | Some q ->
                check_bool "answer nests in its query round trip" true
                  (int_field q "open" <= int_field a "open"
                  && int_field a "close" <= int_field q "close")
              | None -> Alcotest.fail "answer span without a query span")
            | _ -> Alcotest.fail "answer span must carry exactly its gid")
          (by_kind O.Span.Answer_arrival);
        List.iter
          (fun g ->
            check_bool "gauge key is a hosted view" true
              (List.mem (str_field g "key") fed3_view_names);
            check_bool "staleness is non-negative" true
              (int_field g "value" >= 0))
          gauges;
        let o = observe_of result.Core.Engine.metrics in
        check_int "summary agrees with the trace" (List.length spans)
          o.Core.Metrics.spans;
        List.iter
          (fun (v, s) ->
            check_int (v ^ ": staleness 0 at every quiescence probe") 0
              s.Core.Metrics.stale_quiesce_max)
          o.Core.Metrics.staleness)

(* ------------------------------------------------------------------ *)
(* Staleness vs. the oracle over the 40-seed fault sweep               *)
(* ------------------------------------------------------------------ *)

let seeds = List.init 40 (fun i -> i)

let staleness_tracks_the_oracle () =
  List.iter
    (fun reliable ->
      let swept =
        par_map
          (fun seed ->
            let r = run_chaos ~reliable ~observe:true ~algorithm:"eca" ~seed () in
            let diverged =
              not
                (R.Bag.equal
                   (List.assoc "V" r.Core.Engine.final_mvs)
                   (List.assoc "V" r.Core.Engine.final_source_views))
            in
            let s =
              List.assoc "V" (observe_of r.Core.Engine.metrics).Core.Metrics.staleness
            in
            (seed, diverged, s))
          seeds
      in
      List.iter
        (fun (seed, diverged, s) ->
          check_bool
            (Printf.sprintf
               "final staleness is 0 exactly when the view matches the oracle \
                (reliable=%b seed %d)"
               reliable seed)
            true
            ((s.Core.Metrics.stale_final = 0) = not diverged);
          if reliable then begin
            check_int
              (Printf.sprintf "reliable run converges (seed %d)" seed)
              0 s.Core.Metrics.stale_final;
            check_int
              (Printf.sprintf "reliable run is fresh at quiescence (seed %d)"
                 seed)
              0 s.Core.Metrics.stale_quiesce_max
          end)
        swept;
      if not reliable then
        check_bool "raw chaos diverges somewhere, or the sweep proves nothing"
          true
          (List.exists (fun (_, diverged, _) -> diverged) swept))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* The ECA family is fresh at quiescence; UQS accounting is exact      *)
(* ------------------------------------------------------------------ *)

let eca_family_fresh_at_quiescence () =
  List.iter
    (fun (algorithm, runner) ->
      List.iter
        (fun seed ->
          let r : Core.Engine.result = runner ~algorithm ~seed in
          let m = r.Core.Engine.metrics in
          let o = observe_of m in
          List.iter
            (fun (v, s) ->
              check_int
                (Printf.sprintf "%s/%s staleness 0 at quiescence (seed %d)"
                   algorithm v seed)
                0 s.Core.Metrics.stale_quiesce_max)
            o.Core.Metrics.staleness;
          (* Exactly-once delivery means every shipped query's residency
             span closed when its answer was processed. *)
          check_int
            (Printf.sprintf "%s UQS residency samples = queries sent (seed %d)"
               algorithm seed)
            m.Core.Metrics.queries_sent
            o.Core.Metrics.uqs_residency.Core.Metrics.samples;
          check_int
            (Printf.sprintf "%s: no forced closes over reliable (seed %d)"
               algorithm seed)
            0 o.Core.Metrics.span_forced)
        [ 0; 7; 19 ])
    [
      ("eca", fun ~algorithm ~seed -> run_chaos ~observe:true ~algorithm ~seed ());
      ( "eca-local",
        fun ~algorithm ~seed -> run_chaos ~observe:true ~algorithm ~seed () );
      ( "eca-key",
        fun ~algorithm ~seed -> run_keyed_chaos ~observe:true ~algorithm ~seed ()
      );
    ]

(* ------------------------------------------------------------------ *)
(* Observed goldens: spans, gauges and summary pinned byte-for-byte     *)
(* ------------------------------------------------------------------ *)

(* Each file holds one observed run: its JSONL span and gauge export,
   then one line with its [Json_export.result], "observe" summary
   included. The configurations cover what the unobserved goldens and
   the CLI surface do not: a raw chaos edge whose spans are
   force-closed, three sources, schema changes that retire answers in
   flight, and a windowed catalog with shared deltas. Regenerate, as
   for the goldens, only for an intended change of behaviour:

     GOLDEN_REGEN=$PWD/test/golden dune exec test/main.exe -- test observe *)
let with_collector ~trace_out run =
  let observe = O.Collector.create () in
  let result = run observe in
  O.Collector.write_file trace_out observe;
  result

let observed_cases =
  let chaos reliable ~trace_out =
    with_collector ~trace_out (fun oc ->
        run_chaos ~reliable ~oc:(Some oc) ~algorithm:"eca" ~seed:5 ())
  in
  let evolution ~trace_out =
    let { Workload.Scenarios.db; view; updates; ddls } =
      Workload.Scenarios.evolution (Test_evolution.spec ~seed:3 ())
    in
    with_collector ~trace_out (fun observe ->
        Core.Engine.run ~schedule:(Core.Scheduler.Random 3) ~observe
          ~evolution:ddls ~creator:(Core.Registry.creator_exn "eca")
          ~sites:
            [
              source ~fault:Workload.Scenarios.chaos_profile ~fault_seed:33
                ~reliable:true db;
            ]
          ~views:[ R.Viewdef.simple view ] ~updates ())
  in
  let windowed ~trace_out =
    let { Workload.Scenarios.db; view; updates } =
      Workload.Scenarios.keyed (Test_evolution.spec ~seed:7 ())
    in
    let entries =
      [
        Core.Catalog.entry
          ~window:{ Core.Window.rel = "r2"; col = "Y"; k = 4 }
          (R.Viewdef.simple view);
      ]
    in
    with_collector ~trace_out (fun observe ->
        Core.Engine.run ~observe ~share_deltas:true
          ~windows:(Core.Catalog.windows entries)
          ~creator:(Core.Catalog.creator entries) ~sites:[ source db ]
          ~views:(Core.Catalog.views entries) ~updates ())
  in
  [
    ("observe_chaos_reliable", chaos true);
    ("observe_chaos_raw", chaos false);
    ("observe_fed3", fun ~trace_out -> run_fed3 ~trace_out ());
    ("observe_evolution", evolution);
    ("observe_windowed_catalog", windowed);
  ]

let check_observed (name, run) () =
  let file = name ^ ".jsonl" in
  let path = Filename.temp_file "vmw_observe" ".jsonl" in
  let got =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let result = Core.Json_export.result (run ~trace_out:path) in
        Test_golden.read_file path ^ result ^ "\n")
  in
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some dir ->
    Test_golden.write_file (Filename.concat dir file) got;
    Printf.printf "regenerated %s\n" file
  | None ->
    Alcotest.(check string)
      (name ^ " matches its observed golden")
      (Test_golden.read_file (Test_golden.golden_path file))
      got

let suite =
  [
    Alcotest.test_case "collector semantics" `Quick collector_semantics;
    Alcotest.test_case "spans off is byte-identical" `Quick
      spans_off_is_byte_identical;
    Alcotest.test_case "goldens stay pinned" `Quick goldens_stay_pinned;
    Alcotest.test_case "3-source chaos JSONL trace validates" `Quick
      jsonl_trace_validates;
    Alcotest.test_case "staleness tracks the oracle (40 seeds)" `Quick
      staleness_tracks_the_oracle;
    Alcotest.test_case "ECA family fresh at quiescence" `Quick
      eca_family_fresh_at_quiescence;
  ]
  @ List.map
      (fun ((name, _) as case) ->
        Alcotest.test_case name `Quick (check_observed case))
      observed_cases
