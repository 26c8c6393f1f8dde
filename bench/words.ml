(* Minor words: a deterministic work count for the perfbench workloads,
   free of the host noise that wall time carries.

   For each workload and seed, the workload is built through the
   perfbench library, one [Engine.run] is discarded as a warm-up (it
   compiles and stages the plans), and the next run is counted in two
   cells: the words [Engine.start] allocates (set-up: initial views,
   oracle groups, staged programs), and the words from [start] to the
   end of [Engine.finish], divided by the updates it applied (per
   update). Counting them apart keeps set-up work out of the per-update
   cell. [Gc.minor_words] reads the domain's allocation pointer, so the
   count is exact at any point; [Gc.quick_stat]'s count on OCaml 5 moves
   only at minor collections. The same build repeats the same counts, so
   `scripts/words_guard.sh` can gate both with a tight bound.

   `bench/main.exe words` prints the cells as JSON, the format of the
   committed bench/words.json. *)

module B = Perfbench

let seeds = [ 11; 31337 ]

let start (w : B.Workloads.t) =
  Core.Engine.start ~schedule:w.schedule ~share_deltas:w.share_deltas
    ~coalesce:w.coalesce ~creator:w.creator ~sites:w.sites ~views:w.views
    ~updates:w.updates ()

(* Set-up words and minor words per update of one counted run after the
   warm-up. *)
let count name seed =
  let w = B.Workloads.build name seed in
  ignore (Core.Engine.finish (start w) : Core.Engine.result);
  let before = Gc.minor_words () in
  let st = start w in
  let started = Gc.minor_words () in
  let r = Core.Engine.finish st in
  let words = Gc.minor_words () -. started in
  (r.metrics.updates, started -. before, words /. float_of_int r.metrics.updates)

let cell name seed =
  let updates, setup, wpu = count name seed in
  Printf.sprintf
    "    {\"workload\": %S, \"seed\": %d, \"updates\": %d, \"setup_minor_words\": %.0f, \"minor_words_per_update\": %.2f}"
    name seed updates setup wpu

let print () =
  let cells =
    List.concat_map (fun name -> List.map (cell name) seeds) B.Workloads.names
  in
  Printf.printf "{\n  \"metric\": \"minor_words\",\n  \"cells\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" cells)
