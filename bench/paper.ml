(* The paper's evaluation (Section 6 / Appendix D): Table 1, the Section
   6.1 message counts, Figures 6.2-6.5 and the RV/ECA crossovers, each
   analytic closed form printed next to its measured value from the full
   simulator. `bench/main.exe csv DIR` writes the figures as CSV. *)

module CM = Costmodel
module W = Workload

let params = CM.Params.default

let schedule_label = function
  | Core.Scheduler.Best_case -> "[best]"
  | Core.Scheduler.Worst_case -> "[worst]"
  | Core.Scheduler.Round_robin -> "[rr]"
  | Core.Scheduler.Random seed -> Printf.sprintf "[rand=%d]" seed
  | Core.Scheduler.Explicit _ -> "[explicit]"
  | Core.Scheduler.Bounded_inflight b -> Printf.sprintf "[inflight<=%d]" b
  | Core.Scheduler.Weighted_fair q -> Printf.sprintf "[wf=%d]" q

let algo_label ?rv_period ~schedule algorithm =
  algorithm
  ^ (match rv_period with
    | Some p -> Printf.sprintf "[p=%d]" p
    | None -> "")
  ^ schedule_label schedule

let spec_for ?(c = 100) ?(k = 3) ?(seed = 42) () =
  W.Spec.make ~c ~j:4 ~k_updates:k ~seed ()

(* ------------------------------------------------------------------ *)
(* The corner matrix                                                   *)
(* ------------------------------------------------------------------ *)

(* Execution is split from recording so the corner matrix can run on the
   pool: [exec_example6] performs the simulated run and returns everything
   observable (no printing, no shared mutation beyond domain-local plan
   caches), and [record_corner] — always called sequentially, in section
   order — records and prints. *)
type corner_run = {
  label : string;  (* algorithm + period/schedule qualifiers *)
  algorithm : string;  (* bare algorithm name, for diagnostics *)
  wall_s : float;
  metrics : Core.Metrics.t;
  diverged : string option;  (* Some strongest-label when not convergent *)
}

let exec_example6 ?(scenario = 1) ?(schedule = Core.Scheduler.Best_case)
    ?rv_period ~algorithm spec =
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let catalog =
    if scenario = 1 then W.Scenarios.catalog_scenario1 ()
    else W.Scenarios.catalog_scenario2 ()
  in
  let wall_s, result =
    Cell.timed (fun () ->
        Core.Engine.run ~schedule ?rv_period
          ~creator:(Core.Registry.creator_exn algorithm)
          ~sites:[ Cell.source ~catalog db ]
          ~views:[ Relational.Viewdef.simple view ] ~updates ())
  in
  let report = List.assoc "V" result.reports in
  {
    label = algo_label ?rv_period ~schedule algorithm;
    algorithm;
    wall_s;
    metrics = result.metrics;
    diverged =
      (if report.convergent then None
       else Some (Core.Consistency.strongest_label report));
  }

let record_corner r =
  Option.iter (Printf.printf "!! %s did not converge (%s)\n" r.algorithm)
    r.diverged;
  Cell.record ~algorithm:r.label ~wall_s:r.wall_s r.metrics;
  r.metrics

(* The four corners of every figure: RV recomputing once / every update,
   ECA under the no-contention / full-contention interleavings. *)
type corner_key = { ck_scenario : int; ck_c : int; ck_k : int }

let exec_corner { ck_scenario = scenario; ck_c = c; ck_k = k } =
  let spec = spec_for ~c ~k () in
  [|
    exec_example6 ~scenario ~algorithm:"rv" ~rv_period:k spec;
    exec_example6 ~scenario ~algorithm:"rv" ~rv_period:1 spec;
    exec_example6 ~scenario ~schedule:Core.Scheduler.Best_case
      ~algorithm:"eca" spec;
    exec_example6 ~scenario ~schedule:Core.Scheduler.Worst_case
      ~algorithm:"eca" spec;
  |]

(* Every sweep a figure/table section runs, named once so the corner
   table and the sections can never drift apart. *)
let messages_c = 50
let messages_ks = [ 1; 5; 10; 30 ]
let fig_6_2_cs = [ 1; 2; 5; 8; 10; 12; 15; 20 ]
let fig_6_3_ks = [ 1; 15; 30; 45; 60; 90; 120 ]
let fig_io_ks = [ 1; 3; 5; 7; 9; 11 ]
let crossover_measured_ks = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let compensation_ks = [ 3; 15; 30; 60 ]

(* The deduplicated corner matrix, run over the pool the first time a
   section asks for a corner (a sequential map at PAR=1). A corner two
   sections share is executed once and recorded by both. *)
let corner_table =
  lazy
    (let at ?(s = 1) c ks =
       List.map (fun k -> { ck_scenario = s; ck_c = c; ck_k = k }) ks
     in
     let keys =
       List.sort_uniq compare
         (at messages_c messages_ks
         @ List.map (fun c -> { ck_scenario = 1; ck_c = c; ck_k = 3 }) fig_6_2_cs
         @ at 100 fig_6_3_ks @ at 100 fig_io_ks @ at ~s:2 100 fig_io_ks
         @ at 100 crossover_measured_ks @ at 100 compensation_ks)
     in
     List.combine keys
       (Parallel.Pool.map_list Cell.pool exec_corner keys))

let corners ?(scenario = 1) ~c ~k () =
  let runs =
    List.assoc { ck_scenario = scenario; ck_c = c; ck_k = k }
      (Lazy.force corner_table)
  in
  let m = Array.map record_corner runs in
  (m.(0), m.(1), m.(2), m.(3))

(* ------------------------------------------------------------------ *)
(* Table 1 and Section 6.1                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Cell.header "Table 1: variables and defaults";
  Format.printf "%a@." CM.Params.rows params;
  let spec = spec_for () in
  let { W.Scenarios.db; view; _ } = W.Scenarios.example6 spec in
  Printf.printf
    "measured on the generated instance: C=%d J(r2,X)=%.2f J(r3,Y)=%.2f \
     sigma=%.2f\n"
    (Storage.Stats.cardinality db "r1")
    (Storage.Stats.join_factor db "r2" "X")
    (Storage.Stats.join_factor db "r3" "Y")
    (Storage.Stats.selectivity db view)

let messages () =
  Cell.header "Section 6.1: messages M (query + answer; notifications excluded)";
  Printf.printf "%4s %12s %12s %8s | %10s %10s %10s\n" "k" "RV(s=k)" "RV(s=1)"
    "ECA" "meas RV_k" "meas RV_1" "meas ECA";
  List.iter
    (fun k ->
      let rv_best, rv_worst, eca_best, _ = corners ~c:messages_c ~k () in
      Printf.printf "%4d %12d %12d %8d | %10d %10d %10d\n" k
        (CM.Messages.rv ~k ~period:k)
        (CM.Messages.rv ~k ~period:1)
        (CM.Messages.eca ~k)
        (Core.Metrics.messages rv_best)
        (Core.Metrics.messages rv_worst)
        (Core.Metrics.messages eca_best))
    messages_ks

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

(* Each figure as (header, rows) so the same sweep renders as an aligned
   table on stdout or as a CSV artifact for plotting. A row is x, the
   four analytic corners, then the four measured ones. *)
let figure_header =
  [ "x"; "RVBest"; "RVWorst"; "ECABest"; "ECAWorst"; "mRVBest"; "mRVWorst";
    "mECABest"; "mECAWorst" ]

let figure_row x analytic measure (rv_b, rv_w, eca_b, eca_w) =
  (string_of_int x :: List.map (Printf.sprintf "%.0f") analytic)
  @ List.map (fun m -> string_of_int (measure m)) [ rv_b; rv_w; eca_b; eca_w ]

let fig_6_2_rows () =
  List.map
    (fun c ->
      let p = CM.Params.make ~c () in
      figure_row c
        CM.Transfer.[ rv_best p; rv_worst p; eca_best p; eca_worst p ]
        Cell.bytes (corners ~c ~k:3 ()))
    fig_6_2_cs

let fig_6_3_rows () =
  List.map
    (fun k ->
      figure_row k
        CM.Transfer.
          [ rv_best_k params ~k; rv_worst_k params ~k; eca_best_k params ~k;
            eca_worst_k params ~k ]
        Cell.bytes (corners ~c:100 ~k ()))
    fig_6_3_ks

let fig_io_rows ~scenario_id ~scenario () =
  List.map
    (fun k ->
      figure_row k
        CM.Io_model.
          [ rv_best_k scenario params ~k; rv_worst_k scenario params ~k;
            eca_best_k scenario params ~k; eca_worst_k scenario params ~k ]
        (fun m -> m.Core.Metrics.source_io)
        (corners ~scenario:scenario_id ~c:100 ~k ()))
    fig_io_ks

let print_rows rows =
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i = 0 then Printf.printf "%4s" cell
          else begin
            if i = 5 then print_string " |";
            Printf.printf " %9s" cell
          end)
        row;
      print_newline ())
    (figure_header :: rows)

let figure_6_2 () =
  Cell.header "Figure 6.2: B versus C (3 updates; bytes, S=4)";
  print_rows (fig_6_2_rows ())

let figure_6_3 () =
  Cell.header "Figure 6.3: B versus k (C = 100; bytes, S=4)";
  print_rows (fig_6_3_rows ())

let figure_6_4 () =
  Cell.header "Figure 6.4: IO versus k, Scenario 1 (indexes, ample memory)";
  print_rows (fig_io_rows ~scenario_id:1 ~scenario:CM.Io_model.Scenario1 ())

let figure_6_5 () =
  Cell.header "Figure 6.5: IO versus k, Scenario 2 (no indexes, 3 blocks)";
  print_rows (fig_io_rows ~scenario_id:2 ~scenario:CM.Io_model.Scenario2 ())

(* `bench/main.exe csv DIR` writes the four figures' series as CSV files
   ready for plotting. *)
let write_csvs dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, rows) ->
      Out_channel.with_open_text (Filename.concat dir (name ^ ".csv"))
        (fun oc ->
          List.iter
            (fun row -> output_string oc (String.concat "," row ^ "\n"))
            (figure_header :: rows)))
    [
      ("fig6_2", fig_6_2_rows ());
      ("fig6_3", fig_6_3_rows ());
      ("fig6_4", fig_io_rows ~scenario_id:1 ~scenario:CM.Io_model.Scenario1 ());
      ("fig6_5", fig_io_rows ~scenario_id:2 ~scenario:CM.Io_model.Scenario2 ());
    ];
  Printf.printf "wrote fig6_{2,3,4,5}.csv to %s\n" dir

(* ------------------------------------------------------------------ *)
(* Crossovers                                                          *)
(* ------------------------------------------------------------------ *)

let crossovers () =
  Cell.header "Crossovers (smallest k at which one-shot RV beats ECA)";
  let show name f g hi =
    match CM.Crossover.first_at_or_above ~lo:1 ~hi f g with
    | Some k -> Printf.printf "%-45s k = %d\n" name k
    | None -> Printf.printf "%-45s none below %d\n" name hi
  in
  show "B: ECA best vs RV best (paper: 100)"
    (fun k -> CM.Transfer.eca_best_k params ~k)
    (fun k -> CM.Transfer.rv_best_k params ~k)
    300;
  show "B: ECA worst vs RV best (paper: ~30)"
    (fun k -> CM.Transfer.eca_worst_k params ~k)
    (fun k -> CM.Transfer.rv_best_k params ~k)
    300;
  show "IO S1: ECA best vs RV best (paper: 3)"
    (fun k -> CM.Io_model.eca_best_k CM.Io_model.Scenario1 params ~k)
    (fun k -> CM.Io_model.rv_best_k CM.Io_model.Scenario1 params ~k)
    50;
  show "IO S2: ECA worst vs RV best (paper: 5<k<8)"
    (fun k -> CM.Io_model.eca_worst_k CM.Io_model.Scenario2 params ~k)
    (fun k -> CM.Io_model.rv_best_k CM.Io_model.Scenario2 params ~k)
    50;
  (* measured: sweep k and find where measured worst-case ECA IO
     (Scenario 1) passes measured one-shot RV. *)
  let measured_io k =
    let rv, _, _, eca = corners ~scenario:1 ~c:100 ~k () in
    (eca.Core.Metrics.source_io, rv.Core.Metrics.source_io)
  in
  let table =
    List.map (fun k -> (k, measured_io k)) crossover_measured_ks
  in
  (match List.find_opt (fun (_, (eca, rv)) -> eca >= rv) table with
   | Some (k, _) ->
     Printf.printf "%-45s k = %d\n" "IO S1 measured: ECA worst vs RV once" k
   | None ->
     Printf.printf "%-45s none in sweep\n" "IO S1 measured: ECA worst vs RV once")
