(* Regenerates every table and figure of the paper's evaluation
   (Section 6 / Appendix D), printing the analytic closed forms next to
   measured values from the full simulator, then the ablations, the
   extension sections and the wall-clock sections. Each measured run
   lands in BENCH_results.json (schema in EXPERIMENTS.md) through [Cell].

   Sections, in run order:
     [Paper]       Table 1, Sec 6.1 message counts, Figures 6.2-6.5 and
                   the crossovers where RV overtakes ECA
     [Ablations]   compensation cost, ECAK/ECAL/LCA/SC, Scenario 2
                   accounting, batching, timing, literal-only terms,
                   scan sharing, skew, reliable delivery, observability,
                   union/difference views
     [Extensions]  federation, multi-view catalog, N-source scaling,
                   self-maintenance, schema evolution and windows
     [Speed]       sustained SC throughput; Bechamel wall clocks

   `bench/main.exe quick` skips Bechamel; `bench/main.exe csv DIR` writes
   only the figure CSVs; `bench/main.exe throughput` runs only the
   throughput section and writes BENCH_throughput.json; `bench/main.exe
   words` prints the perfbench workloads' set-up words and minor words
   per update (the format of bench/words.json, which
   scripts/words_guard.sh gates on). *)

let sections =
  Paper.
    [ table1; messages; figure_6_2; figure_6_3; figure_6_4; figure_6_5;
      crossovers ]
  @ Ablations.
      [ ablation_compensation; ablation_ecak; ablation_local_rate;
        ablation_sc; ablation_outer_reads; ablation_batching;
        ablation_timing; ablation_literal_eval; ablation_scan_sharing;
        ablation_skew; ablation_reliability; ablation_observe;
        ablation_compound_views ]
  @ Extensions.
      [ bench_federation; bench_catalog; bench_scaling; bench_selfmaint;
        bench_evolution ]
  @ [ Speed.bench_throughput ]

let run ~path ~mode sections =
  let total_wall_s, () =
    Cell.timed (fun () -> List.iter (fun section -> section ()) sections)
  in
  Parallel.Pool.shutdown Cell.pool;
  Cell.write_json ~path ~mode ~total_wall_s;
  Printf.printf "\nwrote %d runs to %s (total_wall_clock_s %.3f, workers %d)\n"
    (List.length !Cell.runs) path total_wall_s Cell.workers

let () =
  match Array.to_list Sys.argv with
  | _ :: "csv" :: dir :: _ ->
    Paper.write_csvs dir;
    Parallel.Pool.shutdown Cell.pool
  | _ :: "words" :: _ ->
    (* Counted on this domain alone: the pool's workers are stopped
       first. *)
    Parallel.Pool.shutdown Cell.pool;
    Words.print ()
  | _ :: "throughput" :: _ ->
    (* Its own artifact, so the committed BENCH_results.json is not
       clobbered by a partial run. *)
    run ~path:"BENCH_throughput.json" ~mode:"throughput"
      [ Speed.bench_throughput ]
  | _ ->
    let quick = Array.exists (String.equal "quick") Sys.argv in
    Printf.printf "workers: %d%s\n" Cell.workers
      (if Cell.workers = 1 then " (sequential)" else "");
    run ~path:"BENCH_results.json"
      ~mode:(if quick then "quick" else "full")
      (if quick then sections else sections @ [ Speed.bechamel_section ]);
    print_newline ()
