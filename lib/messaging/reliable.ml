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
let hole = Message.filler

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
  mutable sacked : (int * int) list;  (* the latest ack's runs *)
  mutable frames : Message.t array;
  mutable sizes : int array;
  mutable last_sent : int array;
  mutable first_sent : int array;
      (* still set when the peer releases the seq: its cumulative acks,
         which alone retire slots, only cover seqs it has released *)
  (* receiver half: the incoming stream *)
  mutable expected : int;  (* next in-order sequence number *)
  mutable window : Message.t array;
      (* out-of-order future frames: a buffered [s] lies in
         [expected, expected + length); [hole] where none is *)
  mutable held : (int * int) list;  (* the buffered seqs, as runs *)
  mutable ack_due : bool;  (* data arrived since this end last acked *)
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
    sacked = [];
    frames = Array.make 8 hole;
    sizes = Array.make 8 0;
    last_sent = Array.make 8 0;
    first_sent = Array.make 8 0;
    expected = 0;
    window = Array.make 8 hole;
    held = [];
    ack_due = false;
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

(* Run lists hold disjoint, inclusive [(lo, hi)] runs, highest first:
   new out-of-order seqs mostly land near the top, so adding them copies
   a list only above them, and successive acks' lists share the rest. *)
let rec above n = function
  | (lo, hi) :: runs when hi > n -> (lo, hi) :: above n runs
  | _ -> []

(* [runs] with the seqs [ss], descending and in none of the runs. *)
let rec add_seqs ss runs =
  match (ss, runs) with
  | [], _ -> runs
  | s :: _, (lo, hi) :: runs when s < lo - 1 -> (lo, hi) :: add_seqs ss runs
  | s :: ss, (lo, hi) :: (lo', hi') :: runs when s = lo - 1 && s = hi' + 1 ->
    add_seqs ss ((lo', hi) :: runs)
  | s :: ss, (lo, hi) :: runs when s = lo - 1 -> add_seqs ss ((s, hi) :: runs)
  | s :: ss, (lo, hi) :: runs when s = hi + 1 -> add_seqs ss ((lo, s) :: runs)
  | s :: ss, runs -> add_seqs ss ((s, s) :: runs)

(* A receiver never discards a buffered frame, and releases one only as
   its cumulative ack passes it. So of two acks, the later has the higher
   [cum] or, at an equal one, holds the other's runs and more; and its
   runs are the union of both above its [cum]: the sender keeps them. At
   an equal [cum], the first run where the lists differ tells which one
   holds more, and lists that share a tail are compared above it. *)
let rec holds_more a b =
  match (a, b) with
  | _ when a == b -> false
  | (lo, hi) :: a, (lo', hi') :: b when lo = lo' && hi = hi' -> holds_more a b
  | (lo, hi) :: _, (lo', hi') :: _ -> hi > hi' || (hi = hi' && lo < lo')
  | _ :: _, [] -> true
  | _ -> false

let ack ep cum sacks =
  if cum > ep.acked || (cum = ep.acked && holds_more sacks ep.sacked) then begin
    for s = ep.acked + 1 to cum do
      ep.frames.(s land (Array.length ep.frames - 1)) <- hole
    done;
    ep.acked <- cum;
    ep.sacked <- sacks
  end

(* The ack [ep] owes, taken by its next data frame or the next tick. *)
let take_ack ep =
  if not ep.ack_due then None
  else (ep.ack_due <- false; Some (ep.expected - 1, ep.held))

(* Drain every frame the faulty channel will currently deliver to [ep]:
   data frames feed the dedup/reorder window, acks — alone or riding on
   data — [ep]'s own outgoing stream. One due ack answers the whole burst
   — re-acking on pure duplicates is what lets a sender whose ack was
   lost make progress — its runs gaining the [fresh] out-of-order seqs
   and losing those [released]. *)
let pump_endpoint t ep peer =
  let fresh = ref [] and released = ref false in
  let rec drain got_data =
    match Channel.receive ep.in_chan with
    | None -> got_data
    | Some (Message.Ack { cum; sacks }) ->
      ack ep cum sacks;
      drain got_data
    | Some (Message.Data { seq; payload; ack = a }) ->
      Option.iter (fun (cum, sacks) -> ack ep cum sacks) a;
      while seq - ep.expected >= Array.length ep.window do
        ep.window <- regrow ep.window ep.expected hole
      done;
      let i = seq land (Array.length ep.window - 1) in
      if seq < ep.expected || ep.window.(i) != hole then
        t.stats.dups_dropped <- t.stats.dups_dropped + 1
      else begin
        ep.window.(i) <- payload;
        if seq > ep.expected then fresh := seq :: !fresh
        else begin
          advance t ep peer;
          if ep.expected > seq + 1 then released := true
        end
      end;
      drain true
    | Some msg ->
      invalid_arg
        ("Reliable: unframed " ^ Message.kind_name msg
       ^ " message on a reliable link")
  in
  if drain false then begin
    let held = add_seqs (List.sort (fun a b -> b - a) !fresh) ep.held in
    ep.held <- (if !released then above (ep.expected - 1) held else held);
    ep.ack_due <- true
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
  let frame = Message.Data { seq; payload = msg; ack = take_ack ep } in
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

(* The overdue holes — unacked seqs in no run, the runs all above [acked]
   — in ascending seq, so the wire order of retransmissions ascends. *)
let retransmit_due t ep =
  let mask = Array.length ep.frames - 1 in
  let rec go s = function
    | (lo, hi) :: runs when lo = s -> go (hi + 1) runs
    | runs when s < ep.next_seq ->
      let i = s land mask in
      if t.now - ep.last_sent.(i) >= t.timeout then begin
        t.stats.retransmits <- t.stats.retransmits + 1;
        send_frame ~size:ep.sizes.(i) t ep ep.frames.(i);
        ep.last_sent.(i) <- t.now
      end;
      go (s + 1) runs
    | _ -> ()
  in
  go (ep.acked + 1) (List.rev ep.sacked)

let flush_ack t ep =
  take_ack ep |> Option.iter (fun (cum, sacks) ->
      send_frame t ep (Message.Ack { cum; sacks });
      t.stats.acks_sent <- t.stats.acks_sent + 1)

(* Due acks leave, and arrive, before any frame is judged overdue. *)
let tick t =
  t.now <- t.now + 1;
  t.dirty <- true;
  Channel.tick t.source_end.out_chan;
  Channel.tick t.warehouse_end.out_chan;
  flush_ack t t.source_end;
  flush_ack t t.warehouse_end;
  pump t;
  retransmit_due t t.source_end;
  retransmit_due t t.warehouse_end;
  pump t

let endpoint_idle ep =
  ep.acked = ep.next_seq - 1 && ep.held = [] && Queue.is_empty ep.ready

let idle t =
  pump t;
  Channel.is_empty t.source_end.out_chan
  && Channel.is_empty t.warehouse_end.out_chan
  && endpoint_idle t.source_end
  && endpoint_idle t.warehouse_end

let stats t = t.stats
