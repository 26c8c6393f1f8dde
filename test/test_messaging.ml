(* FIFO channels and the network: delivery order, byte accounting, and the
   message-size model. *)

open Helpers
module R = Relational
module M = Messaging

let note n = M.Message.Update_note (ins "r1" [ n; n ])

let fifo_order () =
  let ch = M.Channel.create "t" in
  M.Channel.send ch (note 1);
  M.Channel.send ch (note 2);
  M.Channel.send ch (note 3);
  let got =
    List.init 3 (fun _ ->
        match M.Channel.receive ch with
        | Some (M.Message.Update_note u) -> R.Tuple.get u.R.Update.tuple 0
        | _ -> Alcotest.fail "unexpected message")
  in
  Alcotest.(check (list value_testable)) "in order" [ Int 1; Int 2; Int 3 ] got;
  check_bool "drained" true (M.Channel.is_empty ch)

let receive_empty () =
  let ch = M.Channel.create "t" in
  check_bool "empty receive" true (Option.is_none (M.Channel.receive ch))

let stats_accumulate () =
  let ch = M.Channel.create "t" in
  M.Channel.send ch (note 1);
  M.Channel.send ch (note 2);
  ignore (M.Channel.receive ch);
  check_int "messages counted" 2 (M.Channel.messages_sent ch);
  check_int "one pending" 1 (M.Channel.pending ch);
  check_bool "bytes counted" true (M.Channel.bytes_sent ch > 0)

let message_sizes () =
  let q =
    M.Message.Query { id = 1; query = R.Query.of_view (view_w ()) }
  in
  let a =
    M.Message.Answer
      { id = 1; answer = bag [ [ 1 ]; [ 2 ] ]; cost = Storage.Cost.zero }
  in
  check_bool "query has size" true (M.Message.byte_size q > 0);
  check_int "answer sized by contents" (8 + 8) (M.Message.byte_size a);
  Alcotest.(check string) "kind" "answer" (M.Message.kind_name a)

let network_directions () =
  let net = M.Network.create () in
  M.Network.send net M.Network.To_warehouse (note 1);
  check_bool "other direction empty" true
    (Option.is_none (M.Network.receive net M.Network.To_source));
  check_bool "not idle" false (M.Network.idle net);
  ignore (M.Network.receive net M.Network.To_warehouse);
  check_bool "idle after drain" true (M.Network.idle net);
  check_int "totals" 1 (M.Network.total_messages net)

(* ------------------------------------------------------------------ *)
(* Fault profiles at the channel level                                  *)
(* ------------------------------------------------------------------ *)

let drain ch =
  (* pump ticks until nothing remains, collecting first-column ids *)
  let got = ref [] in
  let guard = ref 0 in
  while not (M.Channel.is_empty ch) do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "drain: channel never emptied";
    (match M.Channel.receive ch with
     | Some (M.Message.Update_note u) -> (
       match R.Tuple.get u.R.Update.tuple 0 with
       | R.Value.Int i -> got := i :: !got
       | _ -> Alcotest.fail "unexpected value")
     | Some _ -> Alcotest.fail "unexpected message"
     | None -> M.Channel.tick ch)
  done;
  List.rev !got

let fault_profile_validation () =
  check_bool "none is none" true (M.Fault.is_none M.Fault.none);
  check_bool "reorder_only is a fault" false (M.Fault.is_none (M.Fault.make ~reorder:true ()));
  (match M.Fault.make ~drop:1.0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "drop = 1.0 must be rejected (no delivery possible)");
  (match M.Fault.make ~delay:(-1) () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative delay must be rejected")

let drops_are_counted () =
  let ch =
    M.Channel.create ~fault:(M.Fault.make ~drop:0.5 ()) ~seed:7 "lossy"
  in
  for i = 1 to 100 do
    M.Channel.send ch (note i)
  done;
  let got = drain ch in
  check_int "sent counts every send" 100 (M.Channel.messages_sent ch);
  check_int "dropped + delivered = sent" 100
    (M.Channel.dropped ch + List.length got);
  check_bool "some were dropped" true (M.Channel.dropped ch > 0);
  check_bool "some survived" true (got <> [])

let duplicates_are_counted () =
  let ch =
    M.Channel.create ~fault:(M.Fault.make ~duplicate:1.0 ()) ~seed:1 "dup"
  in
  M.Channel.send ch (note 1);
  M.Channel.send ch (note 2);
  Alcotest.(check (list int)) "every message arrives twice, in order"
    [ 1; 1; 2; 2 ] (drain ch);
  check_int "duplications counted" 2 (M.Channel.duplicated ch);
  check_int "wire count includes the copies" 4 (M.Channel.messages_sent ch)

let delay_ripens_with_ticks () =
  let ch =
    M.Channel.create ~fault:(M.Fault.make ~delay:2 ()) ~seed:5 "slow" in
  M.Channel.send ch (note 1);
  check_bool "pending immediately" true (M.Channel.pending ch > 0);
  (* after enough ticks the message must be ready, whatever latency
     (uniform in [0; delay]) the rng assigned *)
  M.Channel.tick ch;
  M.Channel.tick ch;
  check_bool "ready after [delay] ticks" true (M.Channel.has_ready ch);
  Alcotest.(check (list int)) "delivered" [ 1 ] (drain ch)

let reorder_is_seed_deterministic () =
  let sequence seed =
    let ch = M.Channel.create ~fault:(M.Fault.make ~reorder:true ()) ~seed "shuffle" in
    for i = 1 to 20 do
      M.Channel.send ch (note i)
    done;
    drain ch
  in
  Alcotest.(check (list int)) "same seed, same shuffle"
    (sequence 42) (sequence 42);
  check_bool "reordering actually happens" true
    (sequence 42 <> List.init 20 (fun i -> i + 1));
  Alcotest.(check (list int)) "a permutation, nothing lost"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare (sequence 42))

(* The faulty channel against a reference reimplementation of the
   historical algorithm: a list sorted by (ready_at, stamp), where a
   receive materializes the ready prefix, [List.nth]s into it and filters
   the chosen stamp back out of the whole list. Both consume the same
   seeded RNG stream, so any divergence in draw count, draw bound, or
   chosen message shows up as a different delivery. After every op the
   model also answers [has_ready], [is_empty] and [pending], and the
   channel must agree. *)
type observation = {
  got : int option;
  ready : bool;
  empty : bool;
  pending : int;
}

let ref_channel fault seed ops =
  let rng = Random.State.make [| seed |] in
  let now = ref 0 and stamp = ref 0 and delayed = ref [] in
  let rec insert e = function
    | [] -> [ e ]
    | ((r, s, _) as hd) :: rest ->
      let er, es, _ = e in
      if (er, es) < (r, s) then e :: hd :: rest else hd :: insert e rest
  in
  let transmit i =
    if
      fault.M.Fault.drop > 0.0
      && Random.State.float rng 1.0 < fault.M.Fault.drop
    then ()
    else begin
      let d =
        if fault.M.Fault.delay = 0 then 0
        else Random.State.int rng (fault.M.Fault.delay + 1)
      in
      let s = !stamp in
      incr stamp;
      delayed := insert (!now + d, s, i) !delayed
    end
  in
  let send i =
    transmit i;
    if
      fault.M.Fault.duplicate > 0.0
      && Random.State.float rng 1.0 < fault.M.Fault.duplicate
    then transmit i
  in
  let receive () =
    match List.filter (fun (r, _, _) -> r <= !now) !delayed with
    | [] -> None
    | deliverable ->
      let j =
        if fault.M.Fault.reorder then
          Random.State.int rng (List.length deliverable)
        else 0
      in
      let _, s, i = List.nth deliverable j in
      delayed := List.filter (fun (_, s', _) -> s' <> s) !delayed;
      Some i
  in
  List.map
    (fun op ->
      let got =
        match op with
        | `Send i ->
          send i;
          None
        | `Tick ->
          incr now;
          None
        | `Receive -> receive ()
      in
      {
        got;
        ready = List.exists (fun (r, _, _) -> r <= !now) !delayed;
        empty = !delayed = [];
        pending = List.length !delayed;
      })
    ops

let sut_channel fault seed ops =
  let ch = M.Channel.create ~fault ~seed "sut" in
  List.map
    (fun op ->
      let got =
        match op with
        | `Send i ->
          M.Channel.send ch (note i);
          None
        | `Tick ->
          M.Channel.tick ch;
          None
        | `Receive -> (
          match M.Channel.receive ch with
          | Some (M.Message.Update_note u) -> (
            match R.Tuple.get u.R.Update.tuple 0 with
            | R.Value.Int i -> Some i
            | _ -> None)
          | Some _ | None -> None)
      in
      {
        got;
        ready = M.Channel.has_ready ch;
        empty = M.Channel.is_empty ch;
        pending = M.Channel.pending ch;
      })
    ops

(* A third of the cases are bursts: 300+ sends before the clock first
   moves, so the delayed queue is deep when the receives start, then a
   mixed tail long enough to drain most of it. *)
let channel_matches_reference_prop =
  QCheck.Test.make
    ~name:"faulty receive matches the historical reference model" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun case ->
      let st = rng case in
      let bursty = Random.State.int st 3 = 0 in
      let fault =
        M.Fault.make
          ~drop:(Random.State.float st 0.3)
          ~duplicate:(Random.State.float st 0.3)
          ~delay:(Random.State.int st (if bursty then 5 else 4))
          ~reorder:(Random.State.bool st) ()
      in
      let seed = Random.State.int st 10_000 in
      let next = ref 0 in
      let send () =
        let i = !next in
        incr next;
        `Send i
      in
      let burst =
        if bursty then List.init (300 + Random.State.int st 100) (fun _ -> send ())
        else []
      in
      let tail =
        List.init
          (if bursty then 400 + Random.State.int st 200
           else 30 + Random.State.int st 50)
          (fun _ ->
            match Random.State.int st (if bursty then 6 else 4) with
            | 0 | 1 -> if bursty then `Receive else send ()
            | 2 -> `Tick
            | 3 -> if bursty then send () else `Receive
            | _ -> `Receive)
      in
      let ops = burst @ tail in
      sut_channel fault seed ops = ref_channel fault seed ops)

let frame_sizes () =
  let d = M.Message.Data { seq = 3; payload = note 1; ack = None } in
  let a = M.Message.Ack { cum = 3; sacks = [] } in
  check_int "data frame = header + payload" (8 + M.Message.byte_size (note 1))
    (M.Message.byte_size d);
  check_int "ack frame is header-sized" 8 (M.Message.byte_size a);
  check_int "a piggybacked ack costs what a stand-alone one does"
    (8 + M.Message.byte_size (note 1) + 8 + 16)
    (M.Message.byte_size
       (M.Message.Data { seq = 3; payload = note 1; ack = Some (1, [ (3, 4) ]) }));
  Alcotest.(check string) "data kind" "data" (M.Message.kind_name d);
  Alcotest.(check string) "ack kind" "ack" (M.Message.kind_name a)

let suite =
  [
    Alcotest.test_case "FIFO order" `Quick fifo_order;
    Alcotest.test_case "receive on empty" `Quick receive_empty;
    Alcotest.test_case "stats accumulate" `Quick stats_accumulate;
    Alcotest.test_case "message sizes" `Quick message_sizes;
    Alcotest.test_case "network directions" `Quick network_directions;
    Alcotest.test_case "fault profile validation" `Quick
      fault_profile_validation;
    Alcotest.test_case "drops are counted" `Quick drops_are_counted;
    Alcotest.test_case "duplicates are counted" `Quick duplicates_are_counted;
    Alcotest.test_case "delay ripens with ticks" `Quick delay_ripens_with_ticks;
    Alcotest.test_case "reorder is seed-deterministic" `Quick
      reorder_is_seed_deterministic;
    Alcotest.test_case "protocol frame sizes" `Quick frame_sizes;
  ]
  @ [ Helpers.qcheck channel_matches_reference_prop ]
