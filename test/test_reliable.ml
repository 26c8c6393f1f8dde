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
    Alcotest.test_case "ECA family over reliable+chaos = oracle (40 seeds)"
      `Quick family_correct_over_reliable_chaos;
    Alcotest.test_case "chaos without the sublayer still breaks ECA" `Quick
      chaos_without_reliable_still_breaks_eca;
  ]
  @ [ QCheck_alcotest.to_alcotest reliable_stream_prop ]
