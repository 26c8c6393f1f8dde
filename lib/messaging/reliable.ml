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

(* Fills the empty slots of both rings below. *)
let hole = Message.Ack { cum = -1 }

(* Both halves of an endpoint keep frames in power-of-two arrays indexed
   by [seq land (length - 1)], each over a window of consecutive seqs
   shorter than the array, so a seq in the window has a slot of its own. *)
type endpoint = {
  out_chan : Channel.t;
  in_chan : Channel.t;
  (* sender half: the outgoing stream. Seqs [acked + 1, next_seq) are
     unacknowledged — cumulative acks retire a prefix — and each keeps
     its frame, the frame's wire size (so a retransmit does not walk the
     payload again), its last transmission tick and its first one. *)
  mutable next_seq : int;
  mutable acked : int;  (* highest cumulative ack received *)
  mutable frames : Message.t array;
  mutable sizes : int array;
  mutable last_sent : int array;
  mutable first_sent : int array;
      (* still set when the peer releases the seq: its acks only cover
         seqs it has already released *)
  (* receiver half: the incoming stream *)
  mutable expected : int;  (* next in-order sequence number *)
  mutable window : Message.t array;
      (* out-of-order future frames: a buffered [s] lies in
         [expected, expected + length); [hole] where none is *)
  mutable buffered : int;
  ready : Message.t Queue.t;  (* in-order, deduped, undelivered *)
}

type t = {
  source_end : endpoint;  (* sends the To_warehouse stream *)
  warehouse_end : endpoint;  (* sends the To_source stream *)
  timeout : int;
  mutable now : int;
  mutable dirty : bool;
      (* a frame was sent or the clock ticked since the last pump began:
         only then can a pump find a deliverable frame *)
  stats : stats;
}

let make_endpoint ~out_chan ~in_chan =
  {
    out_chan;
    in_chan;
    next_seq = 0;
    acked = -1;
    frames = Array.make 8 hole;
    sizes = Array.make 8 0;
    last_sent = Array.make 8 0;
    first_sent = Array.make 8 0;
    expected = 0;
    window = Array.make 8 hole;
    buffered = 0;
    ready = Queue.create ();
  }

let create ?(timeout = 3) ~to_warehouse ~to_source () =
  if timeout < 1 then invalid_arg "Reliable.create: timeout must be >= 1";
  {
    source_end = make_endpoint ~out_chan:to_warehouse ~in_chan:to_source;
    warehouse_end = make_endpoint ~out_chan:to_source ~in_chan:to_warehouse;
    timeout;
    now = 0;
    dirty = false;
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

(* Every frame the link puts on a wire goes through here. *)
let send_frame ?size t ep msg =
  t.dirty <- true;
  Channel.send ?size ep.out_chan msg

(* [a] re-placed into a ring twice as long: slot of seq [s] for every [s]
   in [lo, lo + length a). *)
let regrow a lo fill =
  let len = Array.length a in
  let a' = Array.make (2 * len) fill in
  for s = lo to lo + len - 1 do
    a'.(s land ((2 * len) - 1)) <- a.(s land (len - 1))
  done;
  a'

(* Move every now-contiguous buffered frame into [ep]'s deliverable
   queue. [peer] sent the incoming stream, so its [first_sent] ring
   dates the latency measurement. *)
let advance t ep peer =
  let rec go () =
    let seq = ep.expected in
    let i = seq land (Array.length ep.window - 1) in
    let payload = ep.window.(i) in
    if payload != hole then begin
      Queue.push payload ep.ready;
      ep.window.(i) <- hole;
      ep.buffered <- ep.buffered - 1;
      ep.expected <- seq + 1;
      let l =
        t.now - peer.first_sent.(seq land (Array.length peer.first_sent - 1))
      in
      t.stats.delivered <- t.stats.delivered + 1;
      t.stats.latency_total <- t.stats.latency_total + l;
      if l > t.stats.latency_max then t.stats.latency_max <- l;
      go ()
    end
  in
  go ()

(* Retire the acked prefix, releasing its frames. *)
let ack ep cum =
  for s = ep.acked + 1 to cum do
    ep.frames.(s land (Array.length ep.frames - 1)) <- hole
  done;
  if cum > ep.acked then ep.acked <- cum

(* Drain every frame the faulty channel will currently deliver to [ep]:
   data frames feed the dedup/reorder window, ack frames retire the acked
   prefix of [ep]'s own outgoing stream. One cumulative ack answers the
   whole burst — re-acking on pure duplicates is what lets a sender whose
   ack was lost make progress. *)
let pump_endpoint t ep peer =
  let rec drain got_data =
    match Channel.receive ep.in_chan with
    | None -> got_data
    | Some (Message.Ack { cum }) ->
      ack ep cum;
      drain got_data
    | Some (Message.Data { seq; payload }) ->
      while seq - ep.expected >= Array.length ep.window do
        ep.window <- regrow ep.window ep.expected hole
      done;
      let i = seq land (Array.length ep.window - 1) in
      if seq < ep.expected || ep.window.(i) != hole then
        t.stats.dups_dropped <- t.stats.dups_dropped + 1
      else begin
        ep.window.(i) <- payload;
        ep.buffered <- ep.buffered + 1;
        advance t ep peer
      end;
      drain true
    | Some msg ->
      invalid_arg
        ("Reliable: unframed " ^ Message.kind_name msg
       ^ " message on a reliable link")
  in
  if drain false then begin
    send_frame t ep (Message.Ack { cum = ep.expected - 1 });
    t.stats.acks_sent <- t.stats.acks_sent + 1
  end

(* A pump with no frame sent and no tick since the last one began would
   find both channels without a deliverable frame — each drain ended on
   an empty receive, which draws nothing — so it is skipped. *)
let pump t =
  if t.dirty then begin
    t.dirty <- false;
    pump_endpoint t t.warehouse_end t.source_end;
    pump_endpoint t t.source_end t.warehouse_end
  end

let send t dir msg =
  let ep = sender t dir in
  let seq = ep.next_seq in
  if seq - ep.acked > Array.length ep.frames then begin
    let lo = ep.acked + 1 in
    ep.frames <- regrow ep.frames lo hole;
    ep.sizes <- regrow ep.sizes lo 0;
    ep.last_sent <- regrow ep.last_sent lo 0;
    ep.first_sent <- regrow ep.first_sent lo 0
  end;
  let i = seq land (Array.length ep.frames - 1) in
  let frame = Message.Data { seq; payload = msg } in
  let size = Message.byte_size frame in
  ep.next_seq <- seq + 1;
  ep.frames.(i) <- frame;
  ep.sizes.(i) <- size;
  ep.last_sent.(i) <- t.now;
  ep.first_sent.(i) <- t.now;
  send_frame ~size t ep frame;
  pump t

let receive t dir =
  pump t;
  Queue.take_opt (receiver t dir).ready

let has_ready t dir =
  pump t;
  not (Queue.is_empty (receiver t dir).ready)

(* In ascending seq, so the wire order of retransmissions ascends. *)
let retransmit_due t ep =
  let mask = Array.length ep.frames - 1 in
  for s = ep.acked + 1 to ep.next_seq - 1 do
    let i = s land mask in
    if t.now - ep.last_sent.(i) >= t.timeout then begin
      t.stats.retransmits <- t.stats.retransmits + 1;
      send_frame ~size:ep.sizes.(i) t ep ep.frames.(i);
      ep.last_sent.(i) <- t.now
    end
  done

let tick t =
  t.now <- t.now + 1;
  t.dirty <- true;
  Channel.tick t.source_end.out_chan;
  Channel.tick t.warehouse_end.out_chan;
  retransmit_due t t.source_end;
  retransmit_due t t.warehouse_end;
  pump t

let endpoint_idle ep =
  ep.acked = ep.next_seq - 1 && ep.buffered = 0 && Queue.is_empty ep.ready

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
