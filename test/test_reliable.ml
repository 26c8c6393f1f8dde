(* The reliability sublayer: exactly-once FIFO delivery over every fault
   profile, and the ECA family regaining oracle-correctness over faulty
   channels once the sublayer is in place — the constructive counterpart
   of test_faults.ml's "the delivery assumptions are necessary". *)

open Helpers
module R = Relational
module M = Messaging

let payload i = M.Message.Update_note (ins "r1" [ i; i ])

let payload_id = function
  | M.Message.Update_note u -> (
    match R.Tuple.get u.R.Update.tuple 0 with
    | R.Value.Int i -> i
    | _ -> Alcotest.fail "unexpected payload value")
  | msg -> Alcotest.failf "unexpected message kind %s" (M.Message.kind_name msg)

(* Pump a network until nothing is deliverable and nothing is in flight,
   collecting delivered payload ids per direction. *)
let drive net =
  let wh = ref [] and src = ref [] in
  let steps = ref 0 in
  let rec go () =
    incr steps;
    if !steps > 200_000 then Alcotest.fail "drive: transport never settled";
    if M.Network.can_receive net M.Network.To_warehouse then begin
      (match M.Network.receive net M.Network.To_warehouse with
       | Some msg -> wh := payload_id msg :: !wh
       | None -> ());
      go ()
    end
    else if M.Network.can_receive net M.Network.To_source then begin
      (match M.Network.receive net M.Network.To_source with
       | Some msg -> src := payload_id msg :: !src
       | None -> ());
      go ()
    end
    else if not (M.Network.idle net) then begin
      M.Network.tick net;
      go ()
    end
  in
  go ();
  (List.rev !wh, List.rev !src)

(* Send [n] payloads each way over a reliable link and drain it: the
   delivered streams and whether the transport settled idle. *)
let transfer ~fault ~seed ~n =
  let net = M.Network.create ~fault ~seed ~reliable:true () in
  for i = 0 to n - 1 do
    M.Network.send net M.Network.To_warehouse (payload i);
    M.Network.send net M.Network.To_source (payload (1000 + i))
  done;
  let wh, src = drive net in
  (wh, src, M.Network.idle net)

let every_profile_delivers_exactly_once () =
  (* profile × seed cells are independent; fan the transfers over the
     pool, then check in matrix order on this domain — Alcotest's
     assertion log is a shared formatter that must not be written from
     several domains at once. *)
  let n = 12 in
  let cells =
    List.concat_map
      (fun profile -> List.map (fun seed -> (profile, seed)) [ 0; 1; 7; 42 ])
      Workload.Scenarios.fault_profiles
  in
  List.iter2
    (fun ((name, _), seed) (wh, src, idle) ->
      let cell = Printf.sprintf " (%s, seed %d)" name seed in
      Alcotest.(check (list int))
        ("to-warehouse stream is exactly-once FIFO" ^ cell)
        (List.init n (fun i -> i))
        wh;
      Alcotest.(check (list int))
        ("to-source stream is exactly-once FIFO" ^ cell)
        (List.init n (fun i -> 1000 + i))
        src;
      check_bool ("transport idle once drained" ^ cell) true idle)
    cells
    (par_map (fun ((_, fault), seed) -> transfer ~fault ~seed ~n) cells)

let duplicates_are_dropped () =
  let fault = M.Fault.make ~duplicate:1.0 () in
  let net = M.Network.create ~fault ~seed:3 ~reliable:true () in
  for i = 0 to 4 do
    M.Network.send net M.Network.To_warehouse (payload i)
  done;
  let wh, _ = drive net in
  Alcotest.(check (list int)) "deduped" [ 0; 1; 2; 3; 4 ] wh;
  let s = Option.get (M.Network.reliability net) in
  check_bool "receiver discarded the duplicate frames" true
    (s.M.Reliable.dups_dropped >= 5)

let losses_are_retransmitted () =
  let fault = M.Fault.make ~drop:0.7 () in
  let net = M.Network.create ~fault ~seed:11 ~reliable:true () in
  for i = 0 to 7 do
    M.Network.send net M.Network.To_warehouse (payload i)
  done;
  let wh, _ = drive net in
  Alcotest.(check (list int)) "all delivered despite loss"
    (List.init 8 (fun i -> i))
    wh;
  let s = Option.get (M.Network.reliability net) in
  check_bool "losses forced retransmissions" true (s.M.Reliable.retransmits > 0)

let long_chaos_backlog_drains_fifo () =
  (* Regression for the unacked queue's old list-append spelling: a long
     lossy run builds a deep retransmission backlog, and the queue must
     still drain in send order (the append was O(n²) and — worse — a
     head-drop ack filter over a list is easy to get subtly wrong). *)
  let fault = M.Fault.make ~drop:0.3 ~duplicate:0.2 ~delay:3 ~reorder:true () in
  let net = M.Network.create ~fault ~seed:13 ~reliable:true () in
  let n = 400 in
  for i = 0 to n - 1 do
    M.Network.send net M.Network.To_warehouse (payload i)
  done;
  let wh, _ = drive net in
  Alcotest.(check (list int))
    "long lossy backlog drains exactly-once FIFO"
    (List.init n (fun i -> i))
    wh;
  check_bool "transport idle once drained" true (M.Network.idle net);
  let s = Option.get (M.Network.reliability net) in
  check_bool "the backlog actually forced retransmissions" true
    (s.M.Reliable.retransmits > 50)

let twenty_k_chaos_backlog_drains_fifo () =
  (* 20k frames queued on one chaos edge before its clock first moves:
     every send, ack filter and reordered receive walks that backlog, so
     any per-frame cost linear in the queue makes this quadratic. *)
  let net =
    M.Network.create ~fault:Workload.Scenarios.chaos_profile ~seed:5
      ~reliable:true ()
  in
  let n = 20_000 in
  for i = 0 to n - 1 do
    M.Network.send net M.Network.To_warehouse (payload i)
  done;
  let wh, src = drive net in
  Alcotest.(check (list int))
    "20k-frame chaos backlog drains exactly-once FIFO"
    (List.init n (fun i -> i))
    wh;
  check_int "nothing flows the other way" 0 (List.length src);
  check_bool "transport idle once drained" true (M.Network.idle net)

let reliable_stream_prop =
  QCheck.Test.make ~name:"reliable = exactly-once FIFO on random profiles"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let st = rng seed in
      let fault =
        M.Fault.make
          ~drop:(Random.State.float st 0.4)
          ~duplicate:(Random.State.float st 0.4)
          ~delay:(Random.State.int st 4)
          ~reorder:(Random.State.bool st) ()
      in
      let n = 1 + Random.State.int st 20 in
      let net = M.Network.create ~fault ~seed ~reliable:true () in
      for i = 0 to n - 1 do
        M.Network.send net M.Network.To_warehouse (payload i)
      done;
      let wh, _ = drive net in
      wh = List.init n (fun i -> i))

(* ------------------------------------------------------------------ *)
(* End-to-end: the ECA family over Reliable + chaos vs. the oracle     *)
(* ------------------------------------------------------------------ *)

let chaos = Workload.Scenarios.chaos_profile

let run_example6 ?fault ?(reliable = false) ~algorithm ~seed () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:12 ~j:3 ~k_updates:8 ~insert_ratio:0.6 ~seed ())
  in
  let result =
    Core.Engine.run ~schedule:(Core.Scheduler.Random seed)
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ source ?fault ~fault_seed:(seed * 7) ~reliable db ]
      ~views:[ R.Viewdef.simple view ] ~updates ()
  in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  (R.Bag.equal truth (List.assoc "V" result.Core.Engine.final_mvs), result)

let run_keyed ?fault ?(reliable = false) ~algorithm ~seed () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed
      (Workload.Spec.make ~c:12 ~j:3 ~k_updates:8 ~insert_ratio:0.5 ~seed ())
  in
  let result =
    Core.Engine.run ~schedule:(Core.Scheduler.Random seed)
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ source ?fault ~fault_seed:(seed * 7) ~reliable db ]
      ~views:[ R.Viewdef.simple view ] ~updates ()
  in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  (R.Bag.equal truth (List.assoc "VK" result.Core.Engine.final_mvs), result)

let seeds = List.init 40 (fun i -> i)

(* A 20-edge chaos run under the sublayer, Zipf-skewed so one edge
   carries most of the stream. Its delivery counters and trace length are
   literals recorded while the channel still kept its delayed frames in a
   sorted list and the receiver its reorder buffer in another: a change
   to an RNG draw, a ready tick, a retransmission or an ack moves them.
   (Which of a pump's deliverable frames arrives first does not — the
   receiver drains them all before it acks — so the channel's pick order
   is pinned by test_messaging.ml's reference model instead.) *)
let twenty_source_chaos_run_is_pinned () =
  let w =
    Workload.Scenarios.scaled ~c:4 ~updates_per_source:10 ~skew:1.0 ~seed:11
      ~n:20 ()
  in
  let r =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 11)
      ~creator:(Core.Registry.creator_exn "eca-key")
      ~sites:(sites_of ~fault:chaos ~fault_seed:7 ~reliable:true
                w.Workload.Scenarios.sources)
      ~views:(List.map R.Viewdef.simple w.Workload.Scenarios.views)
      ~updates:w.Workload.Scenarios.updates ()
  in
  List.iter
    (fun (view, mv) ->
      check_bag (view ^ " lands on its source's view")
        (List.assoc view r.Core.Engine.final_source_views) mv)
    r.Core.Engine.final_mvs;
  let d = r.Core.Engine.metrics.Core.Metrics.delivery in
  Alcotest.(check (list (pair string int)))
    "delivery counters and trace length"
    [
      ("ticks", 26);
      ("wire_messages", 1783);
      ("retransmits", 622);
      ("dups_dropped", 630);
      ("acks", 381);
      ("delivered", 492);
      ("latency_total", 1759);
      ("latency_max", 8);
      ("trace_entries", 692);
    ]
    [
      ("ticks", d.Core.Metrics.ticks);
      ("wire_messages", d.Core.Metrics.wire_messages);
      ("retransmits", d.Core.Metrics.retransmits);
      ("dups_dropped", d.Core.Metrics.dups_dropped);
      ("acks", d.Core.Metrics.acks);
      ("delivered", d.Core.Metrics.delivered);
      ("latency_total", d.Core.Metrics.latency_total);
      ("latency_max", d.Core.Metrics.latency_max);
      ("trace_entries",
       List.length (Core.Trace.entries r.Core.Engine.trace));
    ]

let family_correct_over_reliable_chaos () =
  List.iter
    (fun (algorithm, runner) ->
      (* the 40-seed sweep runs on the domain pool; checks and counter
         accumulation stay sequential, in seed order *)
      let swept =
        par_map
          (fun seed ->
            let ok, (result : Core.Engine.result) = runner ~algorithm ~seed in
            (seed, ok, result.Core.Engine.metrics.Core.Metrics.delivery))
          seeds
      in
      let retransmits = ref 0 and dups = ref 0 and dropped = ref 0 in
      List.iter
        (fun (seed, ok, d) ->
          retransmits := !retransmits + d.Core.Metrics.retransmits;
          dups := !dups + d.Core.Metrics.dups_dropped;
          dropped := !dropped + d.Core.Metrics.msgs_dropped;
          check_bool
            (Printf.sprintf "%s over reliable+chaos matches oracle (seed %d)"
               algorithm seed)
            true ok)
        swept;
      (* The faults must actually have fired, or the 40 passes above
         prove nothing. *)
      check_bool (algorithm ^ ": losses occurred") true (!dropped > 0);
      check_bool (algorithm ^ ": retransmissions occurred") true
        (!retransmits > 0);
      check_bool (algorithm ^ ": duplicates were dropped") true (!dups > 0))
    [
      ( "eca",
        fun ~algorithm ~seed ->
          run_example6 ~fault:chaos ~reliable:true ~algorithm ~seed () );
      ( "eca-local",
        fun ~algorithm ~seed ->
          run_example6 ~fault:chaos ~reliable:true ~algorithm ~seed () );
      ( "eca-key",
        fun ~algorithm ~seed ->
          run_keyed ~fault:chaos ~reliable:true ~algorithm ~seed () );
    ]

let chaos_without_reliable_still_breaks_eca () =
  let broken =
    List.exists not
      (par_map
         (fun seed -> fst (run_example6 ~fault:chaos ~algorithm:"eca" ~seed ()))
         seeds)
  in
  check_bool "raw chaos channels break ECA somewhere" true broken

let suite =
  [
    Alcotest.test_case "every fault profile delivers exactly-once FIFO" `Quick
      every_profile_delivers_exactly_once;
    Alcotest.test_case "duplicates are dropped" `Quick duplicates_are_dropped;
    Alcotest.test_case "losses are retransmitted" `Quick
      losses_are_retransmitted;
    Alcotest.test_case "long chaos backlog drains FIFO" `Quick
      long_chaos_backlog_drains_fifo;
    Alcotest.test_case "20k-frame chaos backlog drains FIFO" `Quick
      twenty_k_chaos_backlog_drains_fifo;
    Alcotest.test_case "ECA family over reliable+chaos = oracle (40 seeds)"
      `Quick family_correct_over_reliable_chaos;
    Alcotest.test_case "chaos without the sublayer still breaks ECA" `Quick
      chaos_without_reliable_still_breaks_eca;
    Alcotest.test_case "20-source chaos run keeps its pinned counters" `Quick
      twenty_source_chaos_run_is_pinned;
  ]
  @ [ QCheck_alcotest.to_alcotest reliable_stream_prop ]
