(* Minor words per update: a deterministic work count for the perfbench
   workloads, free of the host noise that wall time carries.

   For each workload and seed, the workload is built through the
   perfbench library, one [Engine.run] is discarded as a warm-up (it
   compiles and stages the plans), and the next run is counted:
   [Gc.minor_words ()] before and after, divided by the updates it
   applied. [Gc.minor_words] reads the domain's allocation pointer, so
   the count is exact at any point; [Gc.quick_stat]'s count on OCaml 5
   moves only at minor collections. The same build repeats the same
   count, so `scripts/words_guard.sh` can gate on it with a tight
   bound.

   `bench/main.exe words` prints the cells as JSON, the format of the
   committed bench/words.json. *)

module B = Perfbench

let seeds = [ 11; 31337 ]

let run (w : B.Workloads.t) =
  Core.Engine.run ~schedule:w.schedule ~share_deltas:w.share_deltas
    ~coalesce:w.coalesce ~creator:w.creator ~sites:w.sites ~views:w.views
    ~updates:w.updates ()

(* Minor words per update of one counted run after the warm-up. *)
let per_update name seed =
  let w = B.Workloads.build name seed in
  ignore (run w : Core.Engine.result);
  let before = Gc.minor_words () in
  let r = run w in
  let words = Gc.minor_words () -. before in
  (r.metrics.updates, words /. float_of_int r.metrics.updates)

let cell name seed =
  let updates, wpu = per_update name seed in
  Printf.sprintf
    "    {\"workload\": %S, \"seed\": %d, \"updates\": %d, \"minor_words_per_update\": %.2f}"
    name seed updates wpu

let print () =
  let cells =
    List.concat_map (fun name -> List.map (cell name) seeds) B.Workloads.names
  in
  Printf.printf "{\n  \"metric\": \"minor_words_per_update\",\n  \"cells\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" cells)
