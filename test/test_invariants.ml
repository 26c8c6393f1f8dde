(* Cross-cutting run invariants, checked over randomized end-to-end runs:
   - the JSON exporter emits well-formed JSON (validated by a minimal
     JSON parser written here, no dependencies);
   - message accounting balances at quiescence;
   - every query receives exactly one answer;
   - staleness statistics are internally consistent and correct
     algorithms always converge fresh. *)

(* ------------------------------------------------------------------ *)
(* A minimal strict JSON parser (objects, arrays, strings with escapes,
   numbers, booleans, null)                                            *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let parse_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Printf.sprintf "%s at %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word =
    String.iter expect word
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let digit () =
      match peek () with
      | Some '0' .. '9' ->
        advance ();
        true
      | _ -> false
    in
    if peek () = Some '-' then advance ();
    if not (digit ()) then fail "expected digit";
    while digit () do () done;
    if peek () = Some '.' then begin
      advance ();
      if not (digit ()) then fail "digit after point";
      while digit () do () done
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
       if not (digit ()) then fail "digit in exponent";
       while digit () do () done
     | _ -> ())
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "unexpected character"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing input"

let json_parser_sanity () =
  List.iter parse_json
    [
      {|{}|}; {|[]|}; {|{"a":1,"b":[true,null,"x\"y\n"]}|};
      {|-1.5e-3|}; {|"é"|};
    ];
  List.iter
    (fun bad ->
      match parse_json bad with
      | exception Bad_json _ -> ()
      | () -> Alcotest.failf "accepted bad json %S" bad)
    [ {|{|}; {|{"a":}|}; {|[1,]|}; {|01x|}; {|"unterminated|}; {|{"a":1}}|} ]

(* ------------------------------------------------------------------ *)
(* Randomized run invariants                                           *)
(* ------------------------------------------------------------------ *)

let random_run (seed, algo_idx) =
  let algorithms = [| "eca"; "lca"; "rv"; "sc"; "eca-local" |] in
  let algorithm = algorithms.(algo_idx mod Array.length algorithms) in
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:12 ~j:3 ~k_updates:8 ~insert_ratio:0.7 ~seed ())
  in
  ( algorithm,
    Core.Engine.run ~schedule:(Core.Scheduler.Random seed)
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ Core.Engine.site ~name:"source" db ]
      ~views:[ Relational.Viewdef.simple view ] ~updates () )

let arb_run_input =
  QCheck.make
    ~print:(fun (seed, a) -> Printf.sprintf "seed=%d algo#%d" seed a)
    QCheck.Gen.(pair (int_bound 10_000) (int_bound 4))

let json_export_is_valid =
  QCheck.Test.make ~name:"JSON export of random runs parses" ~count:60
    arb_run_input (fun input ->
      let _, result = random_run input in
      match parse_json (Core.Json_export.result result) with
      | () -> true
      | exception Bad_json _ -> false)

let messages_balance =
  QCheck.Test.make ~name:"queries and answers balance at quiescence"
    ~count:80 arb_run_input (fun input ->
      let _, result = random_run input in
      let m = result.Core.Engine.metrics in
      m.Core.Metrics.queries_sent = m.Core.Metrics.answers_received)

let every_query_answered_once =
  QCheck.Test.make ~name:"every query id answered exactly once" ~count:80
    arb_run_input (fun input ->
      let _, result = random_run input in
      let sent = Hashtbl.create 16 and answered = Hashtbl.create 16 in
      List.iter
        (function
          | Core.Trace.Warehouse_note { queries; _ }
          | Core.Trace.Quiesce_probe { queries; _ }
          | Core.Trace.Warehouse_ddl { queries; _ } ->
            List.iter (fun (gid, _) -> Hashtbl.replace sent gid ()) queries
          | Core.Trace.Warehouse_answer { gid; _ } ->
            Hashtbl.replace answered gid
              (1 + Option.value (Hashtbl.find_opt answered gid) ~default:0)
          | Core.Trace.Source_update _ | Core.Trace.Source_answer _
          | Core.Trace.Source_ddl _ -> ())
        (Core.Trace.entries result.Core.Engine.trace);
      Hashtbl.length sent = Hashtbl.length answered
      && Hashtbl.fold (fun _ n acc -> acc && n = 1) answered true)

let staleness_sanity =
  QCheck.Test.make ~name:"staleness stats are coherent; final lag 0" ~count:80
    arb_run_input (fun input ->
      let _, result = random_run input in
      let lag = Core.Staleness.of_trace result.Core.Engine.trace "V" in
      lag.Core.Staleness.mean_lag <= float_of_int lag.Core.Staleness.max_lag
      && lag.Core.Staleness.mean_lag >= 0.0
      && lag.Core.Staleness.final_lag = 0
      && lag.Core.Staleness.unmatched = 0)

(* A scale smoke test: the whole pipeline at C = 200, k = 60 under the
   adversarial interleaving — larger than any figure point — must stay
   correct and finish promptly. *)
let scale_smoke () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:200 ~j:4 ~k_updates:60 ~insert_ratio:0.8 ~seed:77 ())
  in
  let t0 = Unix.gettimeofday () in
  let result =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ Core.Engine.site ~name:"source" db ]
      ~views:[ Relational.Viewdef.simple view ] ~updates ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    "strongly consistent at scale" true
    (List.assoc "V" result.Core.Engine.reports)
      .Core.Consistency.strongly_consistent;
  Alcotest.(check bool)
    (Printf.sprintf "finishes promptly (%.2fs)" elapsed)
    true (elapsed < 30.0)

let suite =
  [
    Alcotest.test_case "json parser sanity" `Quick json_parser_sanity;
    Alcotest.test_case "scale smoke (C=200, k=60, worst case)" `Quick
      scale_smoke;
  ]
  @ List.map Helpers.qcheck
      [
        json_export_is_valid;
        messages_balance;
        every_query_answered_once;
        staleness_sanity;
      ]
