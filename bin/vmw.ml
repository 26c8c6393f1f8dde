(* vmw — the warehouse view-maintenance workbench.

   Subcommands:
     vmw run SCRIPT        replay a script under a chosen algorithm, schedule,
                           batch size and timing mode (tables/JSON/trace out)
     vmw matrix SCRIPT     every algorithm x every schedule, verdict matrix
     vmw demo              the built-in anomaly demonstration (Example 2)
     vmw inspect SCRIPT    schemas, views, key coverage, initial contents
     vmw analyze SCRIPT    self-maintainability verdicts + rung pricing
     vmw query SCRIPT SQL  evaluate an ad-hoc SELECT on the initial state
     vmw generate DIR      emit an Example-6 workload as CSVs + script
     vmw algorithms        list the registered maintenance algorithms
     vmw model             print the analytic cost model for given params *)

module R = Relational

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path = R.Parser.parse_script (read_file path)

let require_views (script : R.Script.t) =
  if script.R.Script.views = [] then failwith "the script defines no view"

(* The script's initial database, each [--load] CSV replacing its
   relation's initial contents. *)
let initial_db script loads =
  List.fold_left
    (fun db (rel, csv_path) ->
      if not (R.Db.mem db rel) then
        failwith (Printf.sprintf "--load: unknown relation %s" rel);
      let schema = R.Db.schema db rel in
      R.Db.set_contents db rel (R.Csv.parse schema (read_file csv_path)))
    (R.Script.initial_db script) loads

(* The errors a subcommand reports as a message instead of crashing. *)
let error_message = function
  | Sys_error m | Failure m | Invalid_argument m -> Some m
  | Core.Algorithm.Not_applicable m | Core.Catalog.Catalog_error m -> Some m
  | R.Parser.Parse_error m -> Some ("parse error: " ^ m)
  | R.Schema.Schema_error m -> Some ("schema error: " ^ m)
  | R.View.View_error m -> Some ("view error: " ^ m)
  | R.Db.Db_error m -> Some ("database error: " ^ m)
  | R.Csv.Csv_error m -> Some ("csv error: " ^ m)
  | Core.Engine.Engine_error m -> Some ("run error: " ^ m)
  | _ -> None

let guarded f =
  match f () with
  | () -> Ok ()
  | exception e -> (
    match error_message e with
    | Some m -> Error m
    | None -> raise e)

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)
(* ------------------------------------------------------------------ *)

let schedule_of_string s =
  match String.lowercase_ascii s with
  | "best" -> Ok Core.Scheduler.Best_case
  | "worst" -> Ok Core.Scheduler.Worst_case
  | "round-robin" | "rr" -> Ok Core.Scheduler.Round_robin
  | other ->
    let explicit prefix =
      if String.length other > String.length prefix
         && String.sub other 0 (String.length prefix) = prefix
      then Some (String.sub other (String.length prefix)
                   (String.length other - String.length prefix))
      else None
    in
    (match explicit "random:" with
     | Some seed -> (
       match int_of_string_opt seed with
       | Some n -> Ok (Core.Scheduler.Random n)
       | None -> Error (`Msg "random:<seed> needs an integer seed"))
     | None -> (
       match explicit "explicit:" with
       | Some letters -> (
         try
           Ok
             (Core.Scheduler.Explicit
                (List.map
                   (function
                     | 'A' | 'a' -> Core.Scheduler.Apply_update
                     | 'S' | 's' -> Core.Scheduler.Source_receive
                     | 'W' | 'w' -> Core.Scheduler.Warehouse_receive
                     | c -> failwith (Printf.sprintf "bad action %C" c))
                   (List.init (String.length letters) (String.get letters))))
         with Failure m -> Error (`Msg m))
       | None ->
         Error
           (`Msg
              "schedule must be best | worst | round-robin | random:<seed> \
               | explicit:<AWS letters>")))

let schedule_conv =
  let parse = schedule_of_string in
  let print ppf (_ : Core.Scheduler.policy) =
    Format.pp_print_string ppf "<schedule>"
  in
  Cmdliner.Arg.conv (parse, print)

let algorithm_arg =
  Cmdliner.Arg.(
    value
    & opt (enum (List.map (fun e -> (e.Core.Registry.key, e.Core.Registry.key))
                   Core.Registry.entries))
        "eca"
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"Maintenance algorithm (see $(b,vmw algorithms)).")

let schedule_arg =
  Cmdliner.Arg.(
    value
    & opt schedule_conv Core.Scheduler.Best_case
    & info [ "s"; "schedule" ] ~docv:"SCHED"
        ~doc:
          "Event interleaving: $(b,best), $(b,worst), $(b,round-robin), \
           $(b,random:SEED) or $(b,explicit:LETTERS) (A=apply update, \
           W=warehouse receive, S=source answer).")

let rv_period_arg =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "rv-period" ] ~docv:"S"
        ~doc:"RV's recompute period: recompute the view every $(docv) updates.")

let scenario_arg =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "scenario" ] ~docv:"N"
        ~doc:
          "Physical scenario at the source: 1 = indexed + ample memory, 2 = \
           no indexes + 3-block nested loops.")

let trace_arg =
  Cmdliner.Arg.(
    value & flag & info [ "t"; "trace" ] ~doc:"Print the full event trace.")

let json_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the whole run as JSON instead of text.")

let load_arg =
  Cmdliner.Arg.(
    value
    & opt_all (pair ~sep:'=' string file) []
    & info [ "load" ] ~docv:"REL=FILE.csv"
        ~doc:
          "Load a base relation's initial contents from a CSV file (typed \
           by the TABLE declaration); repeatable. Replaces any initial \
           INSERTs into that relation.")

let trace_out_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write the observability span/gauge stream (DESIGN.md \u{00a7}4f) \
           to $(docv) as JSON Lines. Implies collecting spans; without this \
           flag the run is entirely uninstrumented.")

let batch_arg =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:"Batch size: the source executes $(docv) updates per atomic \
              event and sends one notification (Section 7 extension).")

let view_algo_arg =
  Cmdliner.Arg.(
    value
    & opt_all (pair ~sep:'=' string string) []
    & info [ "view-algo" ] ~docv:"VIEW=ALGO"
        ~doc:
          "Per-view algorithm rung for multi-view scripts: maintain $(b,VIEW) \
           with $(b,ALGO) (a registered algorithm, $(b,auto) to pick the \
           cheapest applicable rung — ECAK where every key is projected, \
           ECA-SM where the self-maintainability analysis makes every class \
           local, ECAL where a delete class is local, ECA otherwise — or \
           $(b,auto-cost) to price the eligible rungs with the Appendix-D \
           closed forms over the script's own update stream and take the \
           cheapest by messages, transfer, then storage). Repeatable; views \
           without an override use $(b,--algorithm).")

let share_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "share-deltas" ]
        ~doc:
          "Shared-delta (MQO) maintenance: delta queries raised by \
           distinct views within one warehouse event that differ at most \
           in their projection are shipped once, projecting the union of \
           their columns, and the single answer is fanned out to every \
           subscriber through its own column map. The sharing counters \
           appear in the metrics block.")

let timing_arg =
  let timing_conv =
    Cmdliner.Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "immediate" -> Ok Core.Timing.Immediate
          | "deferred" -> Ok Core.Timing.Deferred
          | other -> (
            match int_of_string_opt other with
            | Some n when n > 0 -> Ok (Core.Timing.Periodic n)
            | _ ->
              Error
                (`Msg "timing must be immediate | deferred | <period int>"))),
        fun ppf (_ : Core.Timing.mode) -> Format.pp_print_string ppf "<timing>" )
  in
  Cmdliner.Arg.(
    value
    & opt timing_conv Core.Timing.Immediate
    & info [ "timing" ] ~docv:"MODE"
        ~doc:
          "Maintenance timing (Section 2): $(b,immediate), $(b,deferred), \
           or an integer period for periodic refresh.")

(* ------------------------------------------------------------------ *)
(* vmw run                                                             *)
(* ------------------------------------------------------------------ *)

let catalog_for scenario =
  if scenario = 2 then Workload.Scenarios.catalog_scenario2 ()
  else Workload.Scenarios.catalog_scenario1 ()

(* --view-algo VIEW=auto-cost: measure the script's own update stream
   through the self-maintainability analysis (how many deletes are
   key-answerable, how many updates self-maintenance still compensates,
   how big the auxiliary views actually are) and let the cost-model
   chooser price the structurally eligible rungs. SC is deliberately not
   offered — full base copies are a policy decision, not a cost one. *)
let cost_measures (script : R.Script.t) (v : R.Viewdef.t) =
  let analysis = R.Selfmaint.analyze v in
  let window =
    List.filter
      (fun (u : R.Update.t) -> R.Viewdef.mentions v u.R.Update.rel)
      script.R.Script.updates
  in
  let class_of (u : R.Update.t) =
    R.Selfmaint.find_class analysis ~rel:u.R.Update.rel ~kind:u.R.Update.kind
  in
  let local_delete (u : R.Update.t) =
    u.R.Update.kind = R.Update.Delete
    &&
    match class_of u with
    | Some { R.Selfmaint.cls_verdict = R.Selfmaint.Self _; _ } -> true
    | _ -> false
  in
  let falls_back u =
    match class_of u with
    | Some { R.Selfmaint.cls_plan = R.Selfmaint.Use_fallback _; _ } -> true
    | _ -> false
  in
  let db = R.Script.initial_db script in
  let aux_bytes =
    if analysis.R.Selfmaint.fully_local then
      snd (R.Selfmaint.storage analysis (R.Selfmaint.seed_aux_db analysis db))
    else 0
  in
  let base_bytes =
    List.fold_left
      (fun acc rel -> acc + R.Bag.byte_size (R.Db.contents db rel))
      0 (R.Viewdef.relation_names v)
  in
  {
    Costmodel.Chooser.updates = List.length window;
    local_deletes = List.length (List.filter local_delete window);
    sm_fallback = List.length (List.filter falls_back window);
    aux_bytes;
    base_bytes;
  }

let eligible_rungs (v : R.Viewdef.t) =
  "eca"
  :: List.filter_map
       (fun (rung, applies) -> if applies v then Some rung else None)
       Core.Catalog.ladder

let cost_rung script v =
  match Costmodel.Chooser.choose (cost_measures script v) (eligible_rungs v) with
  | Some c -> c.Costmodel.Chooser.algo
  | None -> "eca"

let print_run (script : R.Script.t) (result : Core.Engine.result) trace =
  if trace then Format.printf "%a@." Core.Trace.pp result.Core.Engine.trace;
  List.iter
    (fun (name, mv) ->
      let truth = List.assoc name result.Core.Engine.final_source_views in
      let report = List.assoc name result.Core.Engine.reports in
      Format.printf "view %s:@." name;
      (match
         List.find_opt
           (fun (v : R.Viewdef.t) -> String.equal v.R.Viewdef.name name)
           script.R.Script.views
       with
       | Some v ->
         print_string
           (R.Render.table ~columns:(R.Viewdef.output_attr_names v) mv)
       | None -> Format.printf "  %a@." R.Bag.pp mv);
      if not (R.Bag.equal truth mv) then
        Format.printf "  source truth   = %a@." R.Bag.pp truth;
      Format.printf "  verdict        = %a@." Core.Consistency.pp report;
      Format.printf "  staleness      = %a@." Core.Staleness.pp
        (Core.Staleness.of_trace result.Core.Engine.trace name))
    result.Core.Engine.final_mvs;
  (match result.Core.Engine.negative_installs with
   | [] -> ()
   | l ->
     Format.printf
       "!! %d view state(s) carried negative tuple counts (over-deletion \
        anomaly)@."
       (List.length l));
  Format.printf "metrics: %a@." Core.Metrics.pp result.Core.Engine.metrics

let run_script path algorithm schedule rv_period scenario trace json loads
    batch_size timing trace_out view_algos share_deltas =
  guarded @@ fun () ->
  let script = parse_file path in
  require_views script;
  (* Per-view rungs go through the Catalog: every --view-algo must name
     a script view, overrides pick their rung (or [auto]), the rest run
     the global --algorithm. *)
  List.iter
    (fun (name, _) ->
      if
        not
          (List.exists
             (fun (v : R.Viewdef.t) -> String.equal v.R.Viewdef.name name)
             script.R.Script.views)
      then failwith (Printf.sprintf "--view-algo: unknown view %s" name))
    view_algos;
  let entries =
    if view_algos = [] then None
    else
      Some
        (List.map
           (fun (v : R.Viewdef.t) ->
             match List.assoc_opt v.R.Viewdef.name view_algos with
             | Some "auto" -> Core.Catalog.entry v
             | Some "auto-cost" ->
               Core.Catalog.entry ~algo:(cost_rung script v) v
             | Some a -> Core.Catalog.entry ~algo:a v
             | None -> Core.Catalog.entry ~algo:algorithm v)
           script.R.Script.views)
  in
  let base_creator =
    match entries with
    | None -> Core.Registry.creator_exn algorithm
    | Some entries ->
      if not json then
        List.iter
          (fun (name, algo) -> Format.printf "view %s runs %s@." name algo)
          (Core.Catalog.algorithms entries);
      Core.Catalog.creator entries
  in
  let db = initial_db script loads in
  let observe = Option.map (fun _ -> Observe.Collector.create ()) trace_out in
  let result =
    Core.Engine.run ~schedule ~rv_period ~batch_size ?observe ~share_deltas
      ~evolution:script.R.Script.ddls
      ~creator:(Core.Timing.creator timing base_creator)
      ~sites:
        [ Core.Engine.site ~catalog:(catalog_for scenario) ~name:"source" db ]
      ~views:script.R.Script.views ~updates:script.R.Script.updates ()
  in
  (match (trace_out, observe) with
   | Some path, Some c -> Observe.Collector.write_file path c
   | _ -> ());
  if json then print_endline (Core.Json_export.result result)
  else print_run script result trace

(* ------------------------------------------------------------------ *)
(* vmw demo                                                            *)
(* ------------------------------------------------------------------ *)

let demo_script =
  {|
TABLE r1 (W INT, X INT);
TABLE r2 (X INT, Y INT);
VIEW v AS SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X;
INSERT INTO r1 VALUES (1, 2);
UPDATES;
INSERT INTO r2 VALUES (2, 3);
INSERT INTO r1 VALUES (4, 2);
|}

let run_demo () =
  let script = R.Parser.parse_script demo_script in
  let db = R.Script.initial_db script in
  let schedule =
    Core.Scheduler.Explicit
      Core.Scheduler.
        [
          Apply_update; Warehouse_receive; Apply_update; Warehouse_receive;
          Source_receive; Warehouse_receive; Source_receive; Warehouse_receive;
        ]
  in
  Format.printf
    "Example 2 of the paper: two inserts race the warehouse's first query.@.@.";
  List.iter
    (fun algorithm ->
      let result =
        Core.Engine.run ~schedule ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Core.Engine.site ~name:"source" db ]
          ~views:script.R.Script.views ~updates:script.R.Script.updates ()
      in
      let report = List.assoc "v" result.Core.Engine.reports in
      Format.printf "%-6s: MV = %a (%s)@." algorithm R.Bag.pp
        (List.assoc "v" result.Core.Engine.final_mvs)
        (Core.Consistency.strongest_label report))
    [ "basic"; "eca" ];
  Ok ()

(* ------------------------------------------------------------------ *)
(* vmw inspect                                                         *)
(* ------------------------------------------------------------------ *)

let inspect_script path =
  guarded @@ fun () ->
  let script = parse_file path in
  let db = R.Script.initial_db script in
  Format.printf "tables:@.";
  List.iter
    (fun (s : R.Schema.t) ->
      Format.printf "  %a  (%d initial tuples)@." R.Schema.pp s
        (R.Bag.net_cardinality (R.Db.contents db s.R.Schema.name)))
    script.R.Script.tables;
  Format.printf "@.views:@.";
  List.iter
    (fun (v : R.Viewdef.t) ->
      Format.printf "  %a@." R.Viewdef.pp v;
      Format.printf "    key coverage (ECAK eligible): %b@."
        (match R.Viewdef.as_simple v with
         | Some sv -> R.View.covers_all_keys sv
         | None -> false);
      Format.printf "    initial contents:@.";
      print_string
        (R.Render.table ~columns:(R.Viewdef.output_attr_names v)
           (R.Viewdef.eval db v)))
    script.R.Script.views;
  Format.printf "@.update stream: %d updates (%d inserts, %d deletes)@."
    (List.length script.R.Script.updates)
    (List.length
       (List.filter
          (fun (u : R.Update.t) -> u.R.Update.kind = R.Update.Insert)
          script.R.Script.updates))
    (List.length
       (List.filter
          (fun (u : R.Update.t) -> u.R.Update.kind = R.Update.Delete)
          script.R.Script.updates));
  if script.R.Script.ddls <> [] then
    Format.printf "schema changes: %d (ALTER TABLE, woven into the stream)@."
      (List.length script.R.Script.ddls)

(* ------------------------------------------------------------------ *)
(* vmw analyze                                                         *)
(* ------------------------------------------------------------------ *)

let analyze_script path =
  guarded @@ fun () ->
  let script = parse_file path in
  require_views script;
  List.iteri
    (fun i (v : R.Viewdef.t) ->
      if i > 0 then Format.printf "@.";
      let analysis = R.Selfmaint.analyze v in
      Format.printf "%a" R.Selfmaint.pp_report analysis;
      let eligible = eligible_rungs v in
      let candidates =
        Costmodel.Chooser.score (cost_measures script v) eligible
      in
      Format.printf "  eligible rungs over this script's %d updates:@."
        (List.length
           (List.filter
              (fun (u : R.Update.t) -> R.Viewdef.mentions v u.R.Update.rel)
              script.R.Script.updates));
      List.iter
        (fun c -> Format.printf "    %a@." Costmodel.Chooser.pp_candidate c)
        candidates;
      Format.printf "  auto-cost picks: %s@." (cost_rung script v))
    script.R.Script.views

(* ------------------------------------------------------------------ *)
(* vmw generate                                                        *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let generate_workload out_dir c j k seed =
  guarded @@ fun () ->
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spec =
    Workload.Spec.make ~c ~j ~k_updates:k ~seed ()
  in
  let { Workload.Scenarios.db; view = _; updates } =
    Workload.Scenarios.example6 spec
  in
  List.iter
    (fun (s : R.Schema.t) ->
      write_file
        (Filename.concat out_dir (s.R.Schema.name ^ ".csv"))
        (R.Csv.to_string s (R.Db.contents db s.R.Schema.name)))
    Workload.Generator.chain_schemas;
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "-- generated Example-6 workload; load the CSVs with --load\n";
  Buffer.add_string b "TABLE r1 (W INT, X INT);\n";
  Buffer.add_string b "TABLE r2 (X INT, Y INT);\n";
  Buffer.add_string b "TABLE r3 (Y INT, Z INT);\n";
  Buffer.add_string b
    "VIEW v AS SELECT r1.W, r3.Z FROM r1, r2, r3 WHERE r1.X = r2.X AND \
     r2.Y = r3.Y AND r1.W > r3.Z;\n";
  Buffer.add_string b "UPDATES;\n";
  List.iter
    (fun (u : R.Update.t) ->
      let values =
        String.concat ", "
          (List.map R.Value.to_string (R.Tuple.to_list u.R.Update.tuple))
      in
      match u.R.Update.kind with
      | R.Update.Insert ->
        Buffer.add_string b
          (Printf.sprintf "INSERT INTO %s VALUES (%s);\n" u.R.Update.rel values)
      | R.Update.Delete ->
        Buffer.add_string b
          (Printf.sprintf "DELETE FROM %s VALUES (%s);\n" u.R.Update.rel values))
    updates;
  write_file (Filename.concat out_dir "workload.sql") (Buffer.contents b);
  Format.printf
    "wrote %s/{r1,r2,r3}.csv and %s/workload.sql@.run it with:@.  vmw run \
     %s/workload.sql --load r1=%s/r1.csv --load r2=%s/r2.csv --load \
     r3=%s/r3.csv@."
    out_dir out_dir out_dir out_dir out_dir out_dir

(* ------------------------------------------------------------------ *)
(* vmw query                                                           *)
(* ------------------------------------------------------------------ *)

let query_script path select_text loads =
  guarded @@ fun () ->
  let script = parse_file path in
  let db = initial_db script loads in
  let view = R.Parser.parse_select ~tables:script.R.Script.tables select_text in
  print_string (R.Render.view_table view (R.Eval.view db view))

(* ------------------------------------------------------------------ *)
(* vmw algorithms / vmw model                                          *)
(* ------------------------------------------------------------------ *)

let list_algorithms () =
  List.iter
    (fun e ->
      Format.printf "%-10s %s@." e.Core.Registry.key e.Core.Registry.description)
    Core.Registry.entries;
  Ok ()

let print_model c j k_per_block k =
  guarded @@ fun () ->
  let params = Costmodel.Params.make ~c ~j ~k_per_block () in
  Format.printf "%a@.@." Costmodel.Params.rows params;
  Format.printf "with k = %d updates:@." k;
  Format.printf "  B  RV once   %10.0f@." (Costmodel.Transfer.rv_best_k params ~k);
  Format.printf "  B  RV every  %10.0f@." (Costmodel.Transfer.rv_worst_k params ~k);
  Format.printf "  B  ECA best  %10.0f@." (Costmodel.Transfer.eca_best_k params ~k);
  Format.printf "  B  ECA worst %10.0f@." (Costmodel.Transfer.eca_worst_k params ~k);
  List.iter
    (fun (label, s) ->
      Format.printf "  IO %s RV once   %10.0f@." label
        (Costmodel.Io_model.rv_best_k s params ~k);
      Format.printf "  IO %s ECA best  %10.0f@." label
        (Costmodel.Io_model.eca_best_k s params ~k);
      Format.printf "  IO %s ECA worst %10.0f@." label
        (Costmodel.Io_model.eca_worst_k s params ~k))
    [ ("S1", Costmodel.Io_model.Scenario1); ("S2", Costmodel.Io_model.Scenario2) ]

(* ------------------------------------------------------------------ *)
(* Command wiring                                                      *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let exits_of = function
  | Ok () -> 0
  | Error m ->
    Format.eprintf "vmw: %s@." m;
    1

let run_cmd =
  let script_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  let doc = "Replay a warehouse script and report the view and its verdict" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun p a s rv sc t j l b tm to_ va sh ->
          exits_of (run_script p a s rv sc t j l b tm to_ va sh))
      $ script_arg $ algorithm_arg $ schedule_arg $ rv_period_arg
      $ scenario_arg $ trace_arg $ json_arg $ load_arg $ batch_arg
      $ timing_arg $ trace_out_arg $ view_algo_arg $ share_arg)

let demo_cmd =
  let doc = "Show the view-maintenance anomaly and ECA's fix" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const (fun () -> exits_of (run_demo ())) $ const ())

let algorithms_cmd =
  let doc = "List the registered maintenance algorithms" in
  Cmd.v (Cmd.info "algorithms" ~doc)
    Term.(const (fun () -> exits_of (list_algorithms ())) $ const ())

let model_cmd =
  let c_arg = Arg.(value & opt int 100 & info [ "c" ] ~docv:"C") in
  let j_arg = Arg.(value & opt float 4.0 & info [ "j" ] ~docv:"J") in
  let kb_arg = Arg.(value & opt int 20 & info [ "k-per-block" ] ~docv:"K") in
  let k_arg = Arg.(value & opt int 30 & info [ "k" ] ~docv:"UPDATES") in
  let doc = "Print the Appendix-D analytic cost model for given parameters" in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(
      const (fun c j kb k -> exits_of (print_model c j kb k))
      $ c_arg $ j_arg $ kb_arg $ k_arg)

let inspect_cmd =
  let script_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  let doc = "Show a script's schemas, views, key coverage and initial state" in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(const (fun p -> exits_of (inspect_script p)) $ script_arg)

let analyze_cmd =
  let script_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  let doc =
    "Classify each view's update classes for self-maintainability and \
     price the eligible maintenance rungs over the script's update stream"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const (fun p -> exits_of (analyze_script p)) $ script_arg)

let generate_cmd =
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT_DIR")
  in
  let c_arg = Arg.(value & opt int 100 & info [ "c" ] ~docv:"C") in
  let j_arg = Arg.(value & opt int 4 & info [ "j" ] ~docv:"J") in
  let k_arg = Arg.(value & opt int 30 & info [ "k" ] ~docv:"UPDATES") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let doc = "Generate an Example-6 workload as CSV files plus a script" in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const (fun o c j k s -> exits_of (generate_workload o c j k s))
      $ out_arg $ c_arg $ j_arg $ k_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* vmw matrix                                                          *)
(* ------------------------------------------------------------------ *)

let consistency_matrix path =
  guarded @@ fun () ->
  let script = parse_file path in
  require_views script;
  let db = R.Script.initial_db script in
  let schedules =
    [
      ("best", Core.Scheduler.Best_case);
      ("worst", Core.Scheduler.Worst_case);
      ("random", Core.Scheduler.Random 7);
    ]
  in
  Format.printf "%-10s" "";
  List.iter (fun (label, _) -> Format.printf " %-28s" label) schedules;
  Format.printf "@.";
  List.iter
    (fun entry ->
      let algorithm = entry.Core.Registry.key in
      if String.equal algorithm "fetch-join" then ()
      else begin
        Format.printf "%-10s" algorithm;
        List.iter
          (fun (_, schedule) ->
            let cell =
              match
                Core.Engine.run ~schedule ~evolution:script.R.Script.ddls
                  ~creator:(Core.Registry.creator_exn algorithm)
                  ~sites:[ Core.Engine.site ~name:"source" db ]
                  ~views:script.R.Script.views
                  ~updates:script.R.Script.updates ()
              with
              | result ->
                let worst =
                  List.fold_left
                    (fun acc (_, report) ->
                      let label = Core.Consistency.strongest_label report in
                      match acc with
                      | None -> Some label
                      | Some prev ->
                        if String.equal prev label then acc
                        else Some "mixed"
                    )
                    None result.Core.Engine.reports
                in
                Option.value worst ~default:"(no views)"
              | exception Core.Algorithm.Not_applicable _ ->
                if String.equal algorithm "eca-key" then "n/a (keys)"
                else "n/a"
            in
            Format.printf " %-28s" cell)
          schedules;
        Format.printf "@."
      end)
    Core.Registry.entries

let matrix_cmd =
  let script_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  let doc =
    "Run every algorithm under every schedule and print the verdict matrix"
  in
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(const (fun p -> exits_of (consistency_matrix p)) $ script_arg)

let query_cmd =
  let script_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  let select_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SELECT")
  in
  let doc =
    "Evaluate an ad-hoc SELECT against a script's initial source state"
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const (fun p q l -> exits_of (query_script p q l))
      $ script_arg $ select_arg $ load_arg)

let () =
  let doc = "view maintenance in a warehousing environment (SIGMOD '95)" in
  let info = Cmd.info "vmw" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; demo_cmd; algorithms_cmd; model_cmd; inspect_cmd;
            analyze_cmd; generate_cmd; query_cmd; matrix_cmd ]))
