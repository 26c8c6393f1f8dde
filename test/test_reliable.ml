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

(* Selective repeat resends only what was lost. The forward channel
   only drops — no duplication, delay or reorder — and acks return on a
   clean channel, so every frame that arrives is acknowledged, in a run
   if not cumulatively, before the next tick: each retransmission
   answers exactly one dropped transmission. Go-back-N fails this, as it
   resends every unacked frame behind a hole. *)
let only_lost_frames_are_resent () =
  List.iter
    (fun seed ->
      let to_warehouse =
        M.Channel.create ~fault:(M.Fault.make ~drop:0.3 ()) ~seed "to-warehouse"
      and to_source = M.Channel.create "to-source" in
      let r = M.Reliable.create ~to_warehouse ~to_source in
      let n = 300 in
      for i = 0 to n - 1 do
        M.Reliable.send r M.Reliable.To_warehouse (payload i);
        if i mod 7 = 6 then M.Reliable.tick r
      done;
      let got = ref [] in
      let rec drain () =
        match M.Reliable.receive r M.Reliable.To_warehouse with
        | Some msg ->
          got := payload_id msg :: !got;
          drain ()
        | None ->
          if not (M.Reliable.idle r) then begin
            M.Reliable.tick r;
            drain ()
          end
      in
      drain ();
      let cell = Printf.sprintf " (seed %d)" seed in
      Alcotest.(check (list int))
        ("exactly-once FIFO" ^ cell)
        (List.init n (fun i -> i))
        (List.rev !got);
      let s = M.Reliable.stats r in
      check_bool ("frames were lost" ^ cell) true (M.Channel.dropped to_warehouse > 0);
      check_int
        ("one retransmission per dropped transmission" ^ cell)
        (M.Channel.dropped to_warehouse) s.M.Reliable.retransmits;
      check_int ("no duplicate reached the receiver" ^ cell) 0
        s.M.Reliable.dups_dropped)
    [ 1; 2; 3; 11; 42 ]

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
(* The sublayer against its naive spelling                             *)
(* ------------------------------------------------------------------ *)

(* The protocol in its most naive spelling, kept as a reference model: an
   unacked list of payloads in send order, rebuilt by a map on every
   retransmission pass — each resent frame built anew around the
   sender's current ack, if it has received anything — and filtered by
   every ack's runs, riding or alone, a seq-keyed table of
   first-transmission ticks, an [Int] map as the reorder buffer whose
   runs each ack recomputes anew, a flag for the ack a receiver owes —
   taken by its next data frame or by a retransmission, or sent alone at
   the next tick — a list queue of ready messages, and a pump that
   drains both channels on every call. Its timeout is given, where the
   link derives its own. *)
module Ref_link = struct
  module Int_map = Map.Make (Int)

  type endpoint = {
    out_chan : M.Channel.t;
    in_chan : M.Channel.t;
    mutable next_seq : int;
    mutable unacked : (int * M.Message.t * int) list;
    first_sent : (int, int) Hashtbl.t;
    mutable expected : int;
    mutable buffer : M.Message.t Int_map.t;
    mutable ack_due : bool;
    mutable ready : M.Message.t R.Fqueue.t;
  }

  type t = {
    source_end : endpoint;
    warehouse_end : endpoint;
    timeout : int;
    mutable now : int;
    stats : M.Reliable.stats;
  }

  let endpoint ~out_chan ~in_chan =
    {
      out_chan;
      in_chan;
      next_seq = 0;
      unacked = [];
      first_sent = Hashtbl.create 16;
      expected = 0;
      buffer = Int_map.empty;
      ack_due = false;
      ready = R.Fqueue.empty;
    }

  let create ~timeout ~to_warehouse ~to_source =
    {
      source_end = endpoint ~out_chan:to_warehouse ~in_chan:to_source;
      warehouse_end = endpoint ~out_chan:to_source ~in_chan:to_warehouse;
      timeout;
      now = 0;
      stats =
        {
          M.Reliable.retransmits = 0;
          dups_dropped = 0;
          acks_sent = 0;
          delivered = 0;
          latency_total = 0;
          latency_max = 0;
        };
    }

  let sender t = function
    | M.Reliable.To_warehouse -> t.source_end
    | M.Reliable.To_source -> t.warehouse_end

  let receiver t = function
    | M.Reliable.To_warehouse -> t.warehouse_end
    | M.Reliable.To_source -> t.source_end

  let transmit ep frame = M.Channel.send ep.out_chan frame

  let rec advance t ep peer =
    match Int_map.find_opt ep.expected ep.buffer with
    | None -> ()
    | Some payload ->
      let seq = ep.expected in
      ep.buffer <- Int_map.remove seq ep.buffer;
      ep.ready <- R.Fqueue.push ep.ready payload;
      ep.expected <- seq + 1;
      (match Hashtbl.find_opt peer.first_sent seq with
       | Some sent ->
         let l = t.now - sent in
         t.stats.delivered <- t.stats.delivered + 1;
         t.stats.latency_total <- t.stats.latency_total + l;
         if l > t.stats.latency_max then t.stats.latency_max <- l;
         Hashtbl.remove peer.first_sent seq
       | None -> ());
      advance t ep peer

  (* The buffered seqs as disjoint, inclusive runs, highest first: an
     [Int] map from each run's first seq to its last, built key by key. *)
  let runs buffer =
    List.rev @@ Int_map.bindings
      (Int_map.fold
         (fun s _ runs ->
           match Int_map.find_last_opt (fun lo -> lo < s) runs with
           | Some (lo, hi) when hi = s - 1 -> Int_map.add lo s runs
           | _ -> Int_map.add s s runs)
         buffer Int_map.empty)

  (* Every ack retires what it covers; a stale one covers nothing new. *)
  let apply_ack ep (cum, sacks) =
    let held s = List.exists (fun (lo, hi) -> lo <= s && s <= hi) sacks in
    ep.unacked <-
      List.filter (fun (s, _, _) -> s > cum && not (held s)) ep.unacked

  let take_ack ep =
    if ep.ack_due then begin
      ep.ack_due <- false;
      Some (ep.expected - 1, runs ep.buffer)
    end
    else None

  let pump_endpoint t ep peer =
    let rec drain got_data =
      match M.Channel.receive ep.in_chan with
      | None -> got_data
      | Some (M.Message.Ack { cum; sacks }) ->
        apply_ack ep (cum, sacks);
        drain got_data
      | Some (M.Message.Data { seq; payload; ack }) ->
        Option.iter (apply_ack ep) ack;
        if seq < ep.expected || Int_map.mem seq ep.buffer then
          t.stats.dups_dropped <- t.stats.dups_dropped + 1
        else begin
          ep.buffer <- Int_map.add seq payload ep.buffer;
          advance t ep peer
        end;
        drain true
      | Some _ -> Alcotest.fail "unframed message on a reliable link"
    in
    if drain false then ep.ack_due <- true

  let pump t =
    pump_endpoint t t.warehouse_end t.source_end;
    pump_endpoint t t.source_end t.warehouse_end

  let send t dir msg =
    let ep = sender t dir in
    let seq = ep.next_seq in
    ep.next_seq <- seq + 1;
    Hashtbl.replace ep.first_sent seq t.now;
    let frame = M.Message.Data { seq; payload = msg; ack = take_ack ep } in
    ep.unacked <- ep.unacked @ [ (seq, msg, t.now) ];
    transmit ep frame;
    pump t

  let receive t dir =
    pump t;
    let ep = receiver t dir in
    match R.Fqueue.pop ep.ready with
    | None -> None
    | Some (msg, rest) ->
      ep.ready <- rest;
      Some msg

  let has_ready t dir =
    pump t;
    not (R.Fqueue.is_empty (receiver t dir).ready)

  (* Oldest to newest, so the wire order of retransmissions ascends. *)
  let retransmit_due t ep =
    ep.unacked <-
      List.map
        (fun ((seq, payload, last_sent) as entry) ->
          if t.now - last_sent >= t.timeout then begin
            t.stats.retransmits <- t.stats.retransmits + 1;
            ep.ack_due <- false;
            let ack =
              if ep.expected = 0 && Int_map.is_empty ep.buffer then None
              else Some (ep.expected - 1, runs ep.buffer)
            in
            transmit ep (M.Message.Data { seq; payload; ack });
            (seq, payload, t.now)
          end
          else entry)
        ep.unacked

  let flush_ack t ep =
    match take_ack ep with
    | None -> ()
    | Some (cum, sacks) ->
      transmit ep (M.Message.Ack { cum; sacks });
      t.stats.acks_sent <- t.stats.acks_sent + 1

  let tick t =
    t.now <- t.now + 1;
    M.Channel.tick t.source_end.out_chan;
    M.Channel.tick t.warehouse_end.out_chan;
    flush_ack t t.source_end;
    flush_ack t t.warehouse_end;
    pump t;
    retransmit_due t t.source_end;
    retransmit_due t t.warehouse_end;
    pump t

  let endpoint_idle ep =
    ep.unacked = []
    && Int_map.is_empty ep.buffer
    && R.Fqueue.is_empty ep.ready

  let idle t =
    pump t;
    M.Channel.is_empty t.source_end.out_chan
    && M.Channel.is_empty t.warehouse_end.out_chan
    && endpoint_idle t.source_end
    && endpoint_idle t.warehouse_end
end

(* Everything a caller of the link can observe after one op, in a fixed
   call order: [has_ready] and [idle] pump, so both links are asked the
   same questions in the same order. *)
type link_view = {
  got : int option;
  ready_wh : bool;
  ready_src : bool;
  idle : bool;
  counters : int list;  (* the [stats] fields *)
  wires : int list;  (* per channel: sent, bytes, dropped, duplicated *)
}

let view ~got ~has_ready ~idle ~stats ~to_warehouse ~to_source =
  let ready_wh = has_ready M.Reliable.To_warehouse in
  let ready_src = has_ready M.Reliable.To_source in
  let idle = idle () in
  let s : M.Reliable.stats = stats in
  let wire ch =
    M.Channel.
      [ messages_sent ch; bytes_sent ch; dropped ch; duplicated ch ]
  in
  {
    got = Option.map payload_id got;
    ready_wh;
    ready_src;
    idle;
    counters =
      [
        s.retransmits; s.dups_dropped; s.acks_sent; s.delivered;
        s.latency_total; s.latency_max;
      ];
    wires = wire to_warehouse @ wire to_source;
  }

(* Both links over their own channel pair, one profile each way, seeded
   alike (the reverse channel from [seed + 1], as [Network] does). *)
let channels (to_wh, to_src) seed =
  ( M.Channel.create ~fault:to_wh ~seed "to-warehouse",
    M.Channel.create ~fault:to_src ~seed:(seed + 1) "to-source" )

(* One profile each way: [drop], [duplicate] and one reorder draw shared,
   a delay of 0-4 ticks drawn for each direction. *)
let draw_faults st ~drop ~duplicate =
  let reorder = Random.State.bool st in
  let fault () =
    M.Fault.make ~drop ~duplicate ~delay:(Random.State.int st 5) ~reorder ()
  in
  let to_wh = fault () in
  (to_wh, fault ())

(* A schedule of link ops. A third are bursts of 300+ sends before the
   clock first moves, so the reorder window has to grow and the unacked
   queues are deep; then up to three sends in six ops, so backlogs also
   build up while the clock runs. *)
let draw_ops st =
  let bursty = Random.State.int st 3 = 0 in
  let next = ref 0 in
  let dir () =
    if Random.State.int st 4 = 0 then M.Reliable.To_source
    else M.Reliable.To_warehouse
  in
  let send () =
    incr next;
    `Send (dir (), !next)
  in
  let burst =
    if bursty then List.init (300 + Random.State.int st 100) (fun _ -> send ())
    else []
  in
  let sends = 1 + Random.State.int st 3 in
  let tail =
    List.init
      (if bursty then 500 + Random.State.int st 300
       else 40 + Random.State.int st 120)
      (fun _ ->
        let k = Random.State.int st 6 in
        if k < sends then send ()
        else if k < 5 then `Receive (dir ())
        else `Tick)
  in
  burst @ tail

let run_reliable faults seed ops =
  let to_warehouse, to_source = channels faults seed in
  let r = M.Reliable.create ~to_warehouse ~to_source in
  List.map
    (fun op ->
      let got =
        match op with
        | `Send (dir, i) ->
          M.Reliable.send r dir (payload i);
          None
        | `Receive dir -> M.Reliable.receive r dir
        | `Tick ->
          M.Reliable.tick r;
          None
      in
      view ~got ~has_ready:(M.Reliable.has_ready r)
        ~idle:(fun () -> M.Reliable.idle r)
        ~stats:(M.Reliable.stats r) ~to_warehouse ~to_source)
    ops

let run_reference faults seed timeout ops =
  let to_warehouse, to_source = channels faults seed in
  let r = Ref_link.create ~timeout ~to_warehouse ~to_source in
  List.map
    (fun op ->
      let got =
        match op with
        | `Send (dir, i) ->
          Ref_link.send r dir (payload i);
          None
        | `Receive dir -> Ref_link.receive r dir
        | `Tick ->
          Ref_link.tick r;
          None
      in
      view ~got ~has_ready:(Ref_link.has_ready r)
        ~idle:(fun () -> Ref_link.idle r)
        ~stats:r.Ref_link.stats ~to_warehouse ~to_source)
    ops

(* A pump skipped when it would have found a frame, or run when the
   reference's would not, shifts a channel's RNG stream, and every later
   delivery, counter and wire figure with it. The reference's timeout is
   the round trip of the drawn delays, one tick for the ack between. *)
let reliable_matches_reference_prop =
  QCheck.Test.make
    ~name:"reliable link matches its historical reference model" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun case ->
      let st = rng case in
      let drop = Random.State.float st 0.4 in
      let duplicate = Random.State.float st 0.4 in
      let ((to_wh, to_src) as faults) = draw_faults st ~drop ~duplicate in
      let seed = Random.State.int st 10_000 in
      let timeout = to_wh.M.Fault.delay + 1 + to_src.M.Fault.delay in
      let ops = draw_ops st in
      run_reliable faults seed ops = run_reference faults seed timeout ops)

(* The timer outlasts every round trip an unlost frame and its ack can
   take, so over channels that duplicate, delay and reorder but drop
   nothing no frame is ever resent — bursts included, whose acks wait
   for the clock — and both streams still arrive exactly once, in
   order. A fixed timer shorter than a round trip resends here. *)
let drop_free_link_never_resends_prop =
  QCheck.Test.make ~name:"a drop-free link never retransmits" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun case ->
      let st = rng case in
      let faults =
        draw_faults st ~drop:0.0 ~duplicate:(Random.State.float st 0.5)
      in
      let seed = Random.State.int st 10_000 in
      let ops = draw_ops st in
      let to_warehouse, to_source = channels faults seed in
      let r = M.Reliable.create ~to_warehouse ~to_source in
      let wh = ref [] and src = ref [] in
      let take dir =
        match M.Reliable.receive r dir with
        | None -> false
        | Some msg ->
          let got = if dir = M.Reliable.To_warehouse then wh else src in
          got := payload_id msg :: !got;
          true
      in
      List.iter
        (function
          | `Send (dir, i) -> M.Reliable.send r dir (payload i)
          | `Receive dir -> ignore (take dir)
          | `Tick -> M.Reliable.tick r)
        ops;
      let rec drain ticks =
        if take M.Reliable.To_warehouse || take M.Reliable.To_source then
          drain ticks
        else if M.Reliable.idle r || ticks = 0 then ()
        else begin
          M.Reliable.tick r;
          drain (ticks - 1)
        end
      in
      drain 10_000;
      let sent dir =
        List.filter_map
          (function `Send (d, i) when d = dir -> Some i | _ -> None)
          ops
      in
      (M.Reliable.stats r).M.Reliable.retransmits = 0
      && List.rev !wh = sent M.Reliable.To_warehouse
      && List.rev !src = sent M.Reliable.To_source
      && M.Reliable.idle r)

(* Acks ride on reverse data. Over clean channels, in a ping-pong
   exchange where each frame is answered before the clock moves, every
   data frame but the first carries an ack — on a clean wire one without
   runs, its bytes tell — and no ack goes alone. Cutting the exchange
   after its [m]th frame and ticking once must leave the link idle: the
   due ack leaves alone at the tick, and the last frame's piggybacked
   [cum] retired exactly its peer's frames, neither fewer (a frame left
   unacked) nor more (an ack of an unsent seq). When frame [k] is sent,
   its sender has received [(k + 1) / 2] frames: [cum] is one less. *)
let acks_ride_on_reverse_data () =
  for m = 1 to 12 do
    let to_warehouse = M.Channel.create "to-warehouse"
    and to_source = M.Channel.create "to-source" in
    let r = M.Reliable.create ~to_warehouse ~to_source in
    let s = M.Reliable.stats r in
    for k = 0 to m - 1 do
      let dir, back, chan =
        if k mod 2 = 0 then
          (M.Reliable.To_warehouse, M.Reliable.To_source, to_warehouse)
        else (M.Reliable.To_source, M.Reliable.To_warehouse, to_source)
      in
      let cell = Printf.sprintf " (frame %d of %d)" k m in
      let before = M.Channel.bytes_sent chan in
      M.Reliable.send r dir (payload k);
      let ack = if k = 0 then None else Some (((k + 1) / 2) - 1, []) in
      check_int ("the frame's bytes carry its ack" ^ cell)
        (M.Message.byte_size
           (M.Message.Data { seq = k / 2; payload = payload k; ack }))
        (M.Channel.bytes_sent chan - before);
      Alcotest.(check (option int))
        ("answered in order" ^ cell) (Some k)
        (Option.map payload_id (M.Reliable.receive r dir));
      check_bool ("nothing ready the other way" ^ cell) false
        (M.Reliable.has_ready r back);
      check_int ("no ack alone before the first tick" ^ cell) 0 s.acks_sent
    done;
    let cell = Printf.sprintf " (cut after %d)" m in
    check_bool ("the last frame awaits its ack" ^ cell) false (M.Reliable.idle r);
    M.Reliable.tick r;
    check_int ("the due ack leaves alone at the tick" ^ cell) 1 s.acks_sent;
    check_bool ("one tick settles the link" ^ cell) true (M.Reliable.idle r);
    check_int ("nothing was resent" ^ cell) 0 s.retransmits
  done;
  (* Stand-alone acks leave only on ticks, at most one per end. *)
  let to_warehouse, to_source =
    channels (Workload.Scenarios.chaos_profile, Workload.Scenarios.chaos_profile) 5
  in
  let r = M.Reliable.create ~to_warehouse ~to_source in
  let ticks = ref 0 in
  for i = 0 to 59 do
    M.Reliable.send r M.Reliable.To_warehouse (payload i);
    if i mod 3 = 0 then M.Reliable.send r M.Reliable.To_source (payload i)
  done;
  let rec drain () =
    let got_wh = M.Reliable.receive r M.Reliable.To_warehouse in
    let got_src = M.Reliable.receive r M.Reliable.To_source in
    if got_wh <> None || got_src <> None then drain ()
    else if not (M.Reliable.idle r) then begin
      incr ticks;
      if !ticks > 10_000 then Alcotest.fail "the link never settled";
      M.Reliable.tick r;
      drain ()
    end
  in
  drain ();
  let s = M.Reliable.stats r in
  check_bool "chaos forced retransmissions" true (s.retransmits > 0);
  check_bool
    (Printf.sprintf "acks alone (%d) <= 2 x ticks (%d)" s.acks_sent !ticks)
    true
    (s.acks_sent <= 2 * !ticks)

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
   carries most of the stream. Its trace length is a literal recorded
   while the channel still kept its delayed frames in a sorted list and
   the receiver its reorder buffer in another; its delivery counters were
   re-recorded when selective acks replaced go-back-N, when acks began
   to ride on reverse data frames, and when the retransmission timer
   became the channels' round trip and resent frames began to carry the
   current ack. A change to an RNG
   draw, a ready tick, a retransmission or an ack moves them.
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
      ("ticks", 36);
      ("wire_messages", 886);
      ("retransmits", 96);
      ("dups_dropped", 86);
      ("acks", 155);
      ("delivered", 492);
      ("latency_total", 2540);
      ("latency_max", 17);
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
    Alcotest.test_case "selective repeat resends only lost frames" `Quick
      only_lost_frames_are_resent;
    Alcotest.test_case "acks ride on reverse data" `Quick
      acks_ride_on_reverse_data;
  ]
  @ List.map Helpers.qcheck
      [
        reliable_stream_prop;
        reliable_matches_reference_prop;
        drop_free_link_never_resends_prop;
      ]
