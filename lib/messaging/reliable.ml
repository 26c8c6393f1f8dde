module Fqueue = Relational.Fqueue
module Int_map = Map.Make (Int)

type dir =
  | To_warehouse
  | To_source

type stats = {
  mutable retransmits : int;
  mutable dups_dropped : int;
  mutable acks_sent : int;
  mutable delivered : int;
  mutable latency_total : int;
  mutable latency_max : int;
}

type endpoint = {
  out_chan : Channel.t;
  in_chan : Channel.t;
  (* sender half: the outgoing stream *)
  mutable next_seq : int;
  mutable unacked : (int * Message.t * int) Fqueue.t;
      (* seq, payload, last transmission tick; ascending seq. A queue, not
         a list: sends append one entry each, and the list spelling's
         [unacked @ [entry]] re-walked every unacked frame per send —
         quadratic over a lossy run's backlog. *)
  first_sent : (int, int) Hashtbl.t;  (* seq -> tick of first transmission *)
  (* receiver half: the incoming stream *)
  mutable expected : int;  (* next in-order sequence number *)
  mutable buffer : Message.t Int_map.t;  (* out-of-order future frames, by seq *)
  mutable ready : Message.t Fqueue.t;  (* in-order, deduped, undelivered *)
}

type t = {
  source_end : endpoint;  (* sends the To_warehouse stream *)
  warehouse_end : endpoint;  (* sends the To_source stream *)
  timeout : int;
  mutable now : int;
  stats : stats;
}

let make_endpoint ~out_chan ~in_chan =
  {
    out_chan;
    in_chan;
    next_seq = 0;
    unacked = Fqueue.empty;
    first_sent = Hashtbl.create 16;
    expected = 0;
    buffer = Int_map.empty;
    ready = Fqueue.empty;
  }

let create ?(timeout = 3) ~to_warehouse ~to_source () =
  if timeout < 1 then invalid_arg "Reliable.create: timeout must be >= 1";
  {
    source_end = make_endpoint ~out_chan:to_warehouse ~in_chan:to_source;
    warehouse_end = make_endpoint ~out_chan:to_source ~in_chan:to_warehouse;
    timeout;
    now = 0;
    stats =
      {
        retransmits = 0;
        dups_dropped = 0;
        acks_sent = 0;
        delivered = 0;
        latency_total = 0;
        latency_max = 0;
      };
  }

let sender t = function
  | To_warehouse -> t.source_end
  | To_source -> t.warehouse_end

let receiver t = function
  | To_warehouse -> t.warehouse_end
  | To_source -> t.source_end

let transmit ep ~seq payload =
  Channel.send ep.out_chan (Message.Data { seq; payload })

(* Move every now-contiguous buffered frame into [ep]'s deliverable
   queue. [peer] sent the incoming stream, so its [first_sent] table
   dates the latency measurement. *)
let advance t ep peer =
  let rec go () =
    let seq = ep.expected in
    match Int_map.find_opt seq ep.buffer with
    | Some payload ->
      ep.buffer <- Int_map.remove seq ep.buffer;
      ep.ready <- Fqueue.push ep.ready payload;
      ep.expected <- ep.expected + 1;
      (match Hashtbl.find_opt peer.first_sent seq with
       | Some sent ->
         let l = t.now - sent in
         t.stats.delivered <- t.stats.delivered + 1;
         t.stats.latency_total <- t.stats.latency_total + l;
         if l > t.stats.latency_max then t.stats.latency_max <- l;
         Hashtbl.remove peer.first_sent seq
       | None -> ());
      go ()
    | None -> ()
  in
  go ()

(* Drain every frame the faulty channel will currently deliver to [ep]:
   data frames feed the dedup/reorder buffer, ack frames clear the
   retransmission queue of [ep]'s own outgoing stream — [unacked] ascends
   by seq, so that is popping its acked prefix. One cumulative ack
   answers the whole burst — re-acking on pure duplicates is what lets a
   sender whose ack was lost make progress. *)
let pump_endpoint t ep peer =
  let rec drain got_data =
    match Channel.receive ep.in_chan with
    | None -> got_data
    | Some (Message.Ack { cum }) ->
      ep.unacked <- Fqueue.drop_while (fun (s, _, _) -> s <= cum) ep.unacked;
      drain got_data
    | Some (Message.Data { seq; payload }) ->
      if seq < ep.expected || Int_map.mem seq ep.buffer then
        t.stats.dups_dropped <- t.stats.dups_dropped + 1
      else begin
        ep.buffer <- Int_map.add seq payload ep.buffer;
        advance t ep peer
      end;
      drain true
    | Some msg ->
      invalid_arg
        ("Reliable: unframed " ^ Message.kind_name msg
       ^ " message on a reliable link")
  in
  if drain false then begin
    Channel.send ep.out_chan (Message.Ack { cum = ep.expected - 1 });
    t.stats.acks_sent <- t.stats.acks_sent + 1
  end

let pump t =
  pump_endpoint t t.warehouse_end t.source_end;
  pump_endpoint t t.source_end t.warehouse_end

let send t dir msg =
  let ep = sender t dir in
  let seq = ep.next_seq in
  ep.next_seq <- seq + 1;
  Hashtbl.replace ep.first_sent seq t.now;
  ep.unacked <- Fqueue.push ep.unacked (seq, msg, t.now);
  transmit ep ~seq msg;
  pump t

let receive t dir =
  pump t;
  let ep = receiver t dir in
  match Fqueue.pop ep.ready with
  | None -> None
  | Some (msg, rest) ->
    ep.ready <- rest;
    Some msg

let has_ready t dir =
  pump t;
  not (Fqueue.is_empty (receiver t dir).ready)

let retransmit_due t ep =
  ep.unacked <-
    Fqueue.map
      (fun ((seq, payload, last_sent) as entry) ->
        if t.now - last_sent >= t.timeout then begin
          t.stats.retransmits <- t.stats.retransmits + 1;
          transmit ep ~seq payload;
          (seq, payload, t.now)
        end
        else entry)
      ep.unacked

let tick t =
  t.now <- t.now + 1;
  Channel.tick t.source_end.out_chan;
  Channel.tick t.warehouse_end.out_chan;
  retransmit_due t t.source_end;
  retransmit_due t t.warehouse_end;
  pump t

let endpoint_idle ep =
  Fqueue.is_empty ep.unacked
  && Int_map.is_empty ep.buffer
  && Fqueue.is_empty ep.ready

let idle t =
  pump t;
  Channel.is_empty t.source_end.out_chan
  && Channel.is_empty t.warehouse_end.out_chan
  && endpoint_idle t.source_end
  && endpoint_idle t.warehouse_end

let stats t = t.stats

let mean_latency t =
  if t.stats.delivered = 0 then 0.0
  else float_of_int t.stats.latency_total /. float_of_int t.stats.delivered

let pp ppf t =
  Format.fprintf ppf
    "reliable(timeout=%d now=%d): %d retransmits, %d dups dropped, %d acks, \
     %d delivered (mean latency %.2f ticks, max %d)"
    t.timeout t.now t.stats.retransmits t.stats.dups_dropped t.stats.acks_sent
    t.stats.delivered (mean_latency t) t.stats.latency_max
