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
     head-drop ack filter over a list is easy to get subtly wrong). The
     clock moves every second send: a burst sent before it moves leaves
     in two frames, the second holding all payloads sent behind the
     first, and builds no backlog. *)
  let fault = M.Fault.make ~drop:0.3 ~duplicate:0.2 ~delay:3 ~reorder:true () in
  let net = M.Network.create ~fault ~seed:13 ~reliable:true () in
  let n = 400 in
  for i = 0 to n - 1 do
    M.Network.send net M.Network.To_warehouse (payload i);
    if i mod 2 = 1 then M.Network.tick net
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
   if not cumulatively, before the next tick: at each tick the overdue
   holes are exactly the payloads whose last transmission was dropped,
   and each maximal run of consecutive ones is resent as one frame.
   Go-back-N fails this, as it resends every unacked frame behind a
   hole. Such a channel draws one float per transmission, below the drop
   rate when it drops it, so a replay of its generator tells which
   transmission was lost: [lost.(s)] is whether payload [s]'s last one
   was. On this delay-free link every payload leaves at once, alone. *)
let only_lost_frames_are_resent () =
  List.iter
    (fun seed ->
      let drop = 0.3 in
      let to_warehouse =
        M.Channel.create ~fault:(M.Fault.make ~drop ()) ~seed "to-warehouse"
      and to_source = M.Channel.create "to-source" in
      let r = M.Reliable.create ~to_warehouse ~to_source in
      let n = 300 in
      let replay = rng seed and lost = Array.make n false in
      let runs = ref 0 and dropped = ref 0 in
      let transmit () =
        let l = Random.State.float replay 1.0 < drop in
        if l then incr dropped;
        l
      in
      let tick () =
        M.Reliable.tick r;
        let s = ref 0 in
        while !s < n do
          if lost.(!s) then begin
            let lo = !s in
            while !s < n && lost.(!s) do incr s done;
            incr runs;
            let l = transmit () in
            Array.fill lost lo (!s - lo) l
          end
          else incr s
        done
      in
      for i = 0 to n - 1 do
        M.Reliable.send r M.Reliable.To_warehouse (payload i);
        lost.(i) <- transmit ();
        if i mod 7 = 6 then tick ()
      done;
      let got = ref [] in
      let rec drain () =
        match M.Reliable.receive r M.Reliable.To_warehouse with
        | Some msg ->
          got := payload_id msg :: !got;
          drain ()
        | None ->
          if not (M.Reliable.idle r) then begin
            tick ();
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
      check_int ("the replay drops what the channel dropped" ^ cell)
        (M.Channel.dropped to_warehouse) !dropped;
      check_int
        ("one retransmission per run of lost payloads" ^ cell)
        !runs s.M.Reliable.retransmits;
      check_bool ("some runs held several payloads" ^ cell) true
        (!runs < M.Channel.dropped to_warehouse);
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
   unacked list of transmitted payloads in send order, rebuilt by a map
   on every retransmission pass and filtered by every ack's runs, riding
   or alone; a list of held payloads, sent while a transmitted one was
   unacked, that leaves as one frame when the unacked list empties in a
   pump or at the next tick; a seq-keyed table of send ticks, an [Int]
   map as the reorder buffer whose runs each ack recomputes anew, a flag
   for the ack a receiver owes — taken by its next data frame, held run
   or resent run, or sent alone at the next tick — a list queue of ready
   messages, and a pump that drains both channels on every call. Its
   timeout is given, where the link derives its own. With [~single],
   every payload leaves at once in a frame of its own and every hole is
   resent alone. *)
module Ref_link = struct
  module Int_map = Map.Make (Int)

  type endpoint = {
    out_chan : M.Channel.t;
    in_chan : M.Channel.t;
    mutable next_seq : int;
    mutable unacked : (int * M.Message.t * int) list;
    mutable held : (int * M.Message.t) list;
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
    single : bool;
    mutable now : int;
    stats : M.Reliable.stats;
  }

  let endpoint ~out_chan ~in_chan =
    {
      out_chan;
      in_chan;
      next_seq = 0;
      unacked = [];
      held = [];
      first_sent = Hashtbl.create 16;
      expected = 0;
      buffer = Int_map.empty;
      ack_due = false;
      ready = R.Fqueue.empty;
    }

  let create ?(single = false) ~timeout ~to_warehouse ~to_source () =
    {
      source_end = endpoint ~out_chan:to_warehouse ~in_chan:to_source;
      warehouse_end = endpoint ~out_chan:to_source ~in_chan:to_warehouse;
      timeout;
      single;
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

  (* One frame for a nonempty run of consecutive [(seq, payload)]. *)
  let transmit ep run =
    let ack = take_ack ep in
    M.Channel.send ep.out_chan
      (M.Message.Data
         { seq = fst (List.hd run); payloads = List.map snd run; ack })

  let flush_held t ep =
    if ep.held <> [] then begin
      transmit ep ep.held;
      ep.unacked <-
        ep.unacked @ List.map (fun (seq, msg) -> (seq, msg, t.now)) ep.held;
      ep.held <- []
    end

  let pump_endpoint t ep peer =
    let rec drain got_data =
      match M.Channel.receive ep.in_chan with
      | None -> got_data
      | Some (M.Message.Ack { cum; sacks }) ->
        apply_ack ep (cum, sacks);
        drain got_data
      | Some (M.Message.Data { seq; payloads; ack }) ->
        Option.iter (apply_ack ep) ack;
        let fresh =
          List.filteri
            (fun k payload ->
              let s = seq + k in
              if s < ep.expected || Int_map.mem s ep.buffer then false
              else begin
                ep.buffer <- Int_map.add s payload ep.buffer;
                advance t ep peer;
                true
              end)
            payloads
        in
        if fresh = [] then t.stats.dups_dropped <- t.stats.dups_dropped + 1;
        drain true
      | Some _ -> Alcotest.fail "unframed message on a reliable link"
    in
    if drain false then ep.ack_due <- true;
    if ep.unacked = [] && ep.held <> [] then begin
      flush_held t ep;
      true
    end
    else false

  (* Again while a pump released held payloads. *)
  let rec pump t =
    let wh = pump_endpoint t t.warehouse_end t.source_end in
    let src = pump_endpoint t t.source_end t.warehouse_end in
    if wh || src then pump t

  let send t dir msg =
    let ep = sender t dir in
    let seq = ep.next_seq in
    ep.next_seq <- seq + 1;
    Hashtbl.replace ep.first_sent seq t.now;
    ep.held <- ep.held @ [ (seq, msg) ];
    if t.single || ep.unacked = [] || t.timeout = 1 then flush_held t ep;
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

  (* The overdue entries, oldest to newest, so the wire order of
     retransmissions ascends, cut into runs of consecutive seqs (one
     entry each under [single]). *)
  let retransmit_due t ep =
    let overdue (_, _, last_sent) = t.now - last_sent >= t.timeout in
    let runs =
      List.fold_left
        (fun runs ((seq, msg, _) as entry) ->
          if not (overdue entry) then [] :: runs
          else
            match runs with
            | ((s, _) :: _ as run) :: runs when s = seq - 1 && not t.single ->
              ((seq, msg) :: run) :: runs
            | runs -> [ (seq, msg) ] :: runs)
        [] ep.unacked
      |> List.filter (( <> ) []) |> List.rev_map List.rev
    in
    List.iter
      (fun run ->
        t.stats.retransmits <- t.stats.retransmits + 1;
        transmit ep run)
      runs;
    ep.unacked <-
      List.map
        (fun ((seq, payload, _) as entry) ->
          if overdue entry then (seq, payload, t.now) else entry)
        ep.unacked

  let flush_ack t ep =
    match take_ack ep with
    | None -> ()
    | Some (cum, sacks) ->
      M.Channel.send ep.out_chan (M.Message.Ack { cum; sacks });
      t.stats.acks_sent <- t.stats.acks_sent + 1

  let tick t =
    t.now <- t.now + 1;
    M.Channel.tick t.source_end.out_chan;
    M.Channel.tick t.warehouse_end.out_chan;
    flush_held t t.source_end;
    flush_held t t.warehouse_end;
    flush_ack t t.source_end;
    flush_ack t t.warehouse_end;
    pump t;
    retransmit_due t t.source_end;
    retransmit_due t t.warehouse_end;
    pump t

  let endpoint_idle ep =
    ep.unacked = [] && ep.held = []
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

let run_reference ?single faults seed timeout ops =
  let to_warehouse, to_source = channels faults seed in
  let r = Ref_link.create ?single ~timeout ~to_warehouse ~to_source () in
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

(* Run the ops over a fresh link, then tick until both streams are
   drained and the link is idle (at most [ticks] ticks): whether
   [after_tick] held after every tick of the ops, and the payload ids
   each receiver took, in order. *)
let run_and_drain ?(after_tick = fun _ -> true) faults seed ops =
  let to_warehouse, to_source = channels faults seed in
  let r = M.Reliable.create ~to_warehouse ~to_source in
  let wh = ref [] and src = ref [] and ok = ref true in
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
      | `Tick ->
        M.Reliable.tick r;
        ok := !ok && after_tick r)
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
  (r, !ok, List.rev !wh, List.rev !src)

let sent dir ops =
  List.filter_map (function `Send (d, i) when d = dir -> Some i | _ -> None) ops

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
      let r, _, wh, src = run_and_drain faults seed ops in
      (M.Reliable.stats r).M.Reliable.retransmits = 0
      && wh = sent M.Reliable.To_warehouse ops
      && src = sent M.Reliable.To_source ops
      && M.Reliable.idle r)

(* Payloads held behind an unacknowledged frame leave at the next tick
   at the latest, and both streams still arrive exactly once, in order.
   A third of the cases open with a burst of 300+ payloads behind a
   first frame the channel drops: the first seed from the drawn one
   whose first transmission is lost. *)
let held_payloads_leave_by_next_tick_prop =
  QCheck.Test.make
    ~name:"held payloads leave by the next tick, streams stay exactly-once FIFO"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun case ->
      let st = rng case in
      let lost_first = Random.State.int st 3 = 0 in
      let drop =
        if lost_first then 0.2 +. Random.State.float st 0.4
        else Random.State.float st 0.4
      in
      let faults = draw_faults st ~drop ~duplicate:(Random.State.float st 0.4) in
      let seed = Random.State.int st 10_000 in
      let ops = draw_ops st in
      let seed, ops =
        if not lost_first then (seed, ops)
        else begin
          let first_lost s =
            let to_warehouse, to_source = channels faults s in
            let r = M.Reliable.create ~to_warehouse ~to_source in
            M.Reliable.send r M.Reliable.To_warehouse (payload (-1));
            M.Channel.dropped to_warehouse = 1
          in
          let rec search s = if first_lost s then s else search (s + 1) in
          let burst =
            List.init
              (301 + Random.State.int st 100)
              (fun k -> `Send (M.Reliable.To_warehouse, -1 - k))
          in
          (search seed, burst @ ops)
        end
      in
      let r, held_left, wh, src =
        run_and_drain ~after_tick:(fun r -> M.Reliable.held r = 0) faults seed
          ops
      in
      held_left
      && wh = sent M.Reliable.To_warehouse ops
      && src = sent M.Reliable.To_source ops
      && M.Reliable.idle r)

(* A link whose channels cannot delay a frame transmits every payload at
   once, in a frame of its own: the frame sequence, and everything a
   caller observes, is the single-payload reference's. With drops the
   two differ by design, in the resends (runs against single holes), so
   the lock-step comparison runs drop-free; every send is checked to
   leave at once either way. *)
let delay_free_link_sends_at_once_prop =
  QCheck.Test.make
    ~name:"a delay-free link sends at once, as a single-payload reference"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun case ->
      let st = rng case in
      let drop = if Random.State.bool st then 0.0 else Random.State.float st 0.4 in
      let duplicate = Random.State.float st 0.4 in
      let reorder = Random.State.bool st in
      let fault = M.Fault.make ~drop ~duplicate ~delay:0 ~reorder () in
      let faults = (fault, fault) in
      let seed = Random.State.int st 10_000 in
      let ops = draw_ops st in
      let to_warehouse, to_source = channels faults seed in
      let r = M.Reliable.create ~to_warehouse ~to_source in
      let at_once =
        List.for_all
          (function
            | `Send (dir, i) ->
              let ch =
                if dir = M.Reliable.To_warehouse then to_warehouse else to_source
              in
              let before = M.Channel.messages_sent ch in
              M.Reliable.send r dir (payload i);
              M.Channel.messages_sent ch > before && M.Reliable.held r = 0
            | `Receive dir ->
              ignore (M.Reliable.receive r dir);
              true
            | `Tick ->
              M.Reliable.tick r;
              true)
          ops
      in
      at_once
      && (drop > 0.0
         || run_reliable faults seed ops
            = run_reference ~single:true faults seed 1 ops))

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
           (M.Message.Data { seq = k / 2; payloads = [ payload k ]; ack }))
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
  (* Stand-alone acks leave only on ticks, at most one per end. The clock
     moves every fourth send, so frames leave, and are lost, while the
     sends go on. *)
  let to_warehouse, to_source =
    channels (Workload.Scenarios.chaos_profile, Workload.Scenarios.chaos_profile) 5
  in
  let r = M.Reliable.create ~to_warehouse ~to_source in
  let ticks = ref 0 in
  for i = 0 to 59 do
    M.Reliable.send r M.Reliable.To_warehouse (payload i);
    if i mod 3 = 0 then M.Reliable.send r M.Reliable.To_source (payload i);
    if i mod 4 = 3 then begin
      incr ticks;
      M.Reliable.tick r
    end
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
   to ride on reverse data frames, when the retransmission timer
   became the channels' round trip and resent frames began to carry the
   current ack, and when payloads queued behind an unacknowledged frame
   began to leave together and overdue holes to be resent in runs. A
   change to an RNG
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
      ("ticks", 26);
      ("wire_messages", 271);
      ("retransmits", 32);
      ("dups_dropped", 40);
      ("acks", 66);
      ("delivered", 492);
      ("latency_total", 1734);
      ("latency_max", 12);
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
        held_payloads_leave_by_next_tick_prop;
        delay_free_link_sends_at_once_prop;
      ]
