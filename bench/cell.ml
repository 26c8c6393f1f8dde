(* One measured run of the bench: how it is timed, recorded into the runs
   array and serialised into BENCH_results.json, together with the
   top-level section objects written next to the runs and the helpers
   every section shares. No other bench module builds a run record, a
   timer or a section object. *)

module W = Workload

(* `--par=N` on the command line, else the PAR environment variable, else
   every core the machine offers. `PAR=1` (or `--par=1`) is the
   sequential path: no domains are spawned and every run executes in
   section order. The corner matrix and the fault matrices fan out over
   the pool; all recording and printing stays sequential, so the emitted
   artifacts are identical (modulo measured wall-clock noise) at any
   worker count. *)
let workers =
  let from_argv =
    Array.fold_left
      (fun acc arg ->
        match String.index_opt arg '=' with
        | Some i when String.sub arg 0 (i + 1) = "--par=" ->
          Parallel.Pool.parse_workers
            (String.sub arg (i + 1) (String.length arg - i - 1))
        | _ -> acc)
      None Sys.argv
  in
  match from_argv with
  | Some n -> n
  | None -> Parallel.Pool.default_workers ()

let pool = Parallel.Pool.create ~workers ()

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* The smaller of an already measured wall [t0] and two more timed runs
   of [f] (whose first component is a wall clock): the first run warmed
   the plan caches, and one descheduled run must not decide a ratio. *)
let best t0 f = Float.min t0 (Float.min (fst (f ())) (fst (f ())))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The layout the gate scripts grep: a [Block] puts one "key": value per
   line, [Rows] one element per line, and the rest stays inline. *)
type json =
  | Int of int
  | Bool of bool
  | Str of string
  | Fixed of int * float  (* printed with that many decimals *)
  | Obj of (string * json) list  (* { "k": v, ... } *)
  | Arr of json list  (* [ a, b ] *)
  | Packed of json list  (* [a, b] *)
  | Block of (string * json) list
  | Rows of json list

(* [ind] is the indentation of the line the value starts on. *)
let rec render ind = function
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Str s -> "\"" ^ Observe.Span.escape s ^ "\""
  | Fixed (p, x) -> Printf.sprintf "%.*f" p x
  | Obj fs -> "{ " ^ String.concat ", " (List.map (field ind) fs) ^ " }"
  | Arr vs -> "[ " ^ String.concat ", " (List.map (render ind) vs) ^ " ]"
  | Packed vs -> "[" ^ String.concat ", " (List.map (render ind) vs) ^ "]"
  | Block fs -> lines ind "{" "}" (List.map (field (ind + 2)) fs)
  | Rows vs -> lines ind "[" "]" (List.map (render (ind + 2)) vs)

and field ind (k, v) = Printf.sprintf "\"%s\": %s" k (render ind v)

and lines ind o c items =
  let pad n = String.make n ' ' in
  o ^ "\n"
  ^ String.concat ",\n" (List.map (fun s -> pad (ind + 2) ^ s) items)
  ^ "\n" ^ pad ind ^ c

(* ------------------------------------------------------------------ *)
(* Runs and sections                                                   *)
(* ------------------------------------------------------------------ *)

(* The paper's S: bytes per transferred tuple, comparable to analytic B. *)
let s_bytes = Costmodel.Params.default.Costmodel.Params.s
let bytes m = Core.Metrics.bytes_for ~s:s_bytes m

let current_section = ref "startup"

let header title =
  current_section := title;
  Printf.printf "\n================ %s ================\n" title

(* Every measured simulator run, newest first, as its wall clock and its
   entry in the "runs" array: one record per run, grouped by the section
   (figure/table/ablation) that requested it. The schema is documented in
   EXPERIMENTS.md. *)
let runs : (float * json) list ref = ref []

let delivery_json (d : Core.Metrics.delivery) =
  Obj
    [ ("ticks", Int d.ticks); ("retransmits", Int d.retransmits);
      ("dups_dropped", Int d.dups_dropped); ("acks", Int d.acks);
      ("msgs_dropped", Int d.msgs_dropped);
      ("msgs_duplicated", Int d.msgs_duplicated);
      ("delivered", Int d.delivered); ("wire_messages", Int d.wire_messages);
      ("wire_bytes", Int d.wire_bytes) ]

(* [delivery] adds the transport counters (runs over faulty channels or
   the reliable sublayer), [site_delivery] their per-edge breakdown
   (federated runs). *)
let record ?(delivery = false) ?(site_delivery = false) ~algorithm ~wall_s
    (m : Core.Metrics.t) =
  let site (name, d) = Obj [ ("site", Str name); ("delivery", delivery_json d) ] in
  let entry =
    Obj
      ([ ("figure", Str !current_section); ("algorithm", Str algorithm);
         ("wall_clock_s", Fixed (6, wall_s));
         ("messages", Int (Core.Metrics.messages m));
         ("answer_tuples", Int m.answer_tuples); ("bytes", Int (bytes m));
         ("source_io", Int m.source_io) ]
      @ (if delivery then [ ("delivery", delivery_json m.delivery) ] else [])
      @
      if site_delivery then
        [ ("site_delivery", Packed (List.map site m.site_delivery)) ]
      else [])
  in
  runs := (wall_s, entry) :: !runs

(* The top-level objects a section writes next to the runs array, in the
   order they are emitted — that order is part of the artifact, and
   check_determinism.sh normalises from "observe" to the end. *)
let section_order =
  [ "observe"; "throughput"; "catalog"; "scaling"; "selfmaint"; "evolution" ]

let sections : (string * json) list ref = ref []

let section name fields =
  if not (List.mem name section_order) then
    invalid_arg ("Cell.section: unknown section " ^ name);
  sections := (name, Block fields) :: !sections

(* A numeric anchor from the committed bench/baseline.json (read from the
   working directory, so run from the repo root); [None] when the file or
   field is missing, and the field is then omitted from the output. *)
let baseline field =
  let path = "bench/baseline.json" in
  let prefix = Printf.sprintf "\"%s\":" field in
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path In_channel.input_lines
    |> List.find_map (fun line ->
           let line = String.trim line in
           if String.starts_with ~prefix line then
             let n = String.length prefix in
             Scanf.sscanf_opt
               (String.sub line n (String.length line - n))
               " %f" Fun.id
           else None)

let write_json ~path ~mode ~total_wall_s =
  (* Summed per-run wall clock: the work done, independent of how many
     domains it was spread over — what the perf guard compares. *)
  let sum_run_wall_s =
    List.fold_left (fun acc (w, _) -> acc +. w) 0.0 !runs
  in
  let seed =
    Option.map
      (fun s -> ("seed_quick_wall_clock_s", Fixed (3, s)))
      (baseline "seed_quick_wall_clock_s")
  in
  let doc =
    Block
      ([ ("schema_version", Int 10); ("mode", Str mode);
         ("workers", Int workers);
         ("total_wall_clock_s", Fixed (3, total_wall_s));
         ("sum_run_wall_clock_s", Fixed (3, sum_run_wall_s)) ]
      @ Option.to_list seed
      @ List.filter_map
          (fun name ->
            Option.map (fun v -> (name, v)) (List.assoc_opt name !sections))
          section_order
      @ [ ("runs", Rows (List.rev_map snd !runs)) ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (render 0 doc ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* The paper's single source as a one-site graph. *)
let source = Core.Engine.site ~name:"source"

(* A fresh span collector for an observed run, none otherwise. *)
let collector observe =
  if observe then Some (Observe.Collector.create ()) else None

let channel reliable = if reliable then "reliable" else "raw"

(* Every fault profile crossed with {raw channels, reliable sublayer}. *)
let fault_matrix () =
  List.concat_map
    (fun (name, fault) ->
      List.map (fun reliable -> (name, fault, reliable)) [ false; true ])
    W.Scenarios.fault_profiles

(* The observe summary of a run made with a collector. *)
let observed label (r : Core.Engine.result) =
  match r.metrics.observe with
  | Some o -> o
  | None -> failwith (label ^ ": observed run carries no observe summary")

let stale_quiesce_max (o : Core.Metrics.observe) =
  List.fold_left (fun acc (_, g) -> max acc g.Core.Metrics.stale_quiesce_max)
    0 o.staleness
