(* CSV loading/dumping and the JSON exporter. *)

open Helpers
module R = Relational

let typed_schema =
  R.Schema.make "t"
    [
      { R.Schema.col_name = "A"; col_type = R.Value.Tint };
      { R.Schema.col_name = "B"; col_type = R.Value.Tfloat };
      { R.Schema.col_name = "C"; col_type = R.Value.Tstr };
      { R.Schema.col_name = "D"; col_type = R.Value.Tbool };
    ]

let csv_roundtrip () =
  let b =
    R.Bag.of_list
      [
        R.Tuple.of_list
          [ Int 1; Float 2.5; Str "plain"; Bool true ];
        R.Tuple.of_list
          [ Int (-3); Float 0.25; Str "with,comma"; Bool false ];
        R.Tuple.of_list
          [ Int 4; Float 1.0; Str "with \"quotes\""; Bool true ];
      ]
  in
  let text = R.Csv.to_string typed_schema b in
  check_bag "roundtrip" b (R.Csv.parse typed_schema text)

let csv_duplicates_kept () =
  let text = "1,1.0,x,true\n1,1.0,x,true\n" in
  let b = R.Csv.parse typed_schema text in
  check_int "two copies" 2
    (R.Bag.count b
       (R.Tuple.of_list [ Int 1; Float 1.0; Str "x"; Bool true ]))

let csv_header_skipped () =
  let text = "A,B,C,D\n7,1.5,y,false\n" in
  let b = R.Csv.parse ~header:true typed_schema text in
  check_int "one row" 1 (R.Bag.net_cardinality b)

let csv_field_splitting () =
  Alcotest.(check (list string))
    "quoted fields"
    [ "a"; "b,c"; "d\"e"; "" ]
    (R.Csv.split_record {|a,"b,c","d""e",|})

let csv_errors () =
  let fails text =
    match R.Csv.parse typed_schema text with
    | exception R.Csv.Csv_error _ -> ()
    | _ -> Alcotest.failf "expected Csv_error for %S" text
  in
  fails "1,2.0,x\n" (* arity *);
  fails "nope,2.0,x,true\n" (* type *);
  fails "1,2.0,\"x,true\n" (* unterminated quote *);
  match R.Csv.to_string typed_schema (R.Bag.singleton ~count:(-1)
    (R.Tuple.of_list [ Int 1; Float 1.0; Str "x"; Bool true ])) with
  | exception R.Csv.Csv_error _ -> ()
  | _ -> Alcotest.fail "expected Csv_error on negative counts"

let csv_crlf () =
  let text = "1,1.0,x,true\r\n2,2.0,y,false\r\n" in
  check_int "two rows" 2
    (R.Bag.net_cardinality (R.Csv.parse typed_schema text))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escaping () =
  Alcotest.(check string)
    "escapes" {|"a\"b\\c\u000ad"|}
    (Core.Json_export.str "a\"b\\c\nd")

let json_values () =
  Alcotest.(check string) "int" "42" (Core.Json_export.value (Int 42));
  Alcotest.(check string) "bool" "true" (Core.Json_export.value (Bool true));
  Alcotest.(check string) "string" {|"hi"|} (Core.Json_export.value (Str "hi"))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let json_result_is_valid_enough () =
  (* structural smoke: balanced braces/brackets and the expected keys *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let result =
    run ~algorithm:"eca" ~views:[ view_w () ] ~db
      ~updates:[ ins "r2" [ 2; 3 ] ] ()
  in
  let json = Core.Json_export.result result in
  let count c =
    String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 json
  in
  check_int "balanced braces" (count '{') (count '}');
  check_int "balanced brackets" (count '[') (count ']');
  List.iter
    (fun key ->
      check_bool (key ^ " present") true (contains json ("\"" ^ key ^ "\"")))
    [ "metrics"; "views"; "trace"; "report"; "strongest" ]

(* ------------------------------------------------------------------ *)
(* Table rendering                                                     *)
(* ------------------------------------------------------------------ *)

let render_table () =
  let b = R.Bag.add ~count:2 (R.Tuple.ints [ 4 ]) (bag [ [ 1 ] ]) in
  let text = R.Render.table ~columns:[ "W" ] b in
  check_bool "header present" true (contains text "| W |");
  check_bool "count column marks duplicates" true (contains text "x+2");
  let neg = R.Render.table ~columns:[ "W" ] (R.Bag.singleton ~count:(-1) (R.Tuple.ints [ 9 ])) in
  check_bool "negative counts visible" true (contains neg "x-1")

let render_empty () =
  let text = R.Render.view_table (view_w ()) R.Bag.empty in
  check_bool "empty table renders" true (contains text "| W |")

let suite =
  [
    Alcotest.test_case "render table" `Quick render_table;
    Alcotest.test_case "render empty table" `Quick render_empty;
    Alcotest.test_case "csv roundtrip" `Quick csv_roundtrip;
    Alcotest.test_case "csv keeps duplicates" `Quick csv_duplicates_kept;
    Alcotest.test_case "csv header" `Quick csv_header_skipped;
    Alcotest.test_case "csv field splitting" `Quick csv_field_splitting;
    Alcotest.test_case "csv errors" `Quick csv_errors;
    Alcotest.test_case "csv CRLF" `Quick csv_crlf;
    Alcotest.test_case "json escaping" `Quick json_escaping;
    Alcotest.test_case "json values" `Quick json_values;
    Alcotest.test_case "json result shape" `Quick json_result_is_valid_enough;
  ]
