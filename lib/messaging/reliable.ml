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

(* Both halves of an endpoint keep messages in power-of-two arrays indexed
   by [seq land (length - 1)], each over a window of consecutive seqs
   shorter than the array, so a seq in the window has a slot of its own. *)
type endpoint = {
  out_chan : Channel.t;
  in_chan : Channel.t;
  (* sender half: the outgoing stream. Seqs [acked + 1, next_seq) are
     unacknowledged — cumulative acks retire a prefix — and each keeps
     its payload, its payload's wire size (so a frame is priced without
     walking its payloads again), its last transmission tick and the
     tick it was sent at. Seqs [sent_upto, next_seq) are held: sent, but
     not yet transmitted. *)
  mutable next_seq : int;
  mutable sent_upto : int;  (* first seq never transmitted *)
  mutable acked : int;  (* highest cumulative ack received *)
  mutable sacked : (int * int) list;  (* the latest ack's runs *)
  mutable payloads : Message.t array;
  mutable sizes : int array;
  mutable last_sent : int array;
  mutable first_sent : int array;
      (* still set when the peer releases the seq: its cumulative acks,
         which alone retire slots, only cover seqs it has released *)
  (* receiver half: the incoming stream *)
  mutable expected : int;  (* next in-order sequence number *)
  mutable window : Message.t array;
      (* out-of-order future payloads: a buffered [s] lies in
         [expected, expected + length); [hole] where none is *)
  mutable buffered : (int * int) list;  (* the buffered seqs, as runs *)
  mutable ack_due : bool;  (* data arrived since this end last acked *)
  ready : Message.t Queue.t;  (* in-order, deduped, undelivered *)
}

type t = {
  source_end : endpoint;  (* sends the To_warehouse stream *)
  warehouse_end : endpoint;  (* sends the To_source stream *)
  timeout : int;  (* an unlost frame's longest round trip, see [create] *)
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
    sent_upto = 0;
    acked = -1;
    sacked = [];
    payloads = Array.make 8 hole;
    sizes = Array.make 8 0;
    last_sent = Array.make 8 0;
    first_sent = Array.make 8 0;
    expected = 0;
    window = Array.make 8 hole;
    buffered = [];
    ack_due = false;
    ready = Queue.create ();
  }

(* A frame sent at tick [t] with delay [d] ripens at tick [t + d] and is
   drained by the pump that follows (a pump that releases held payloads
   pumps again, see [pump]). The ack it makes due leaves at the
   next tick at the latest ([tick] flushes due acks first), ripens [d']
   ticks later and is drained by that tick's first pump, before
   [retransmit_due] judges the frame: an unlost frame is acknowledged
   within [d + 1 + d'] ticks, the same sum from either end. *)
let create ~to_warehouse ~to_source =
  {
    source_end = make_endpoint ~out_chan:to_warehouse ~in_chan:to_source;
    warehouse_end = make_endpoint ~out_chan:to_source ~in_chan:to_warehouse;
    timeout =
      Channel.delay_bound to_warehouse + 1 + Channel.delay_bound to_source;
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

(* Move every now-contiguous buffered payload into [ep]'s deliverable
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
      ep.payloads.(s land (Array.length ep.payloads - 1)) <- hole
    done;
    ep.acked <- cum;
    ep.sacked <- sacks
  end

(* The ack [ep] owes, taken by its next data frame or the next tick. *)
let take_ack ep =
  if not ep.ack_due then None
  else (ep.ack_due <- false; Some (ep.expected - 1, ep.buffered))

(* Seqs [lo, hi] of [ep]'s ring as one frame carrying [ack], each slot
   stamped with this transmission. *)
let transmit_run t ep lo hi ack =
  let mask = Array.length ep.payloads - 1 in
  let rec collect s payloads size =
    if s < lo then (payloads, size)
    else begin
      let i = s land mask in
      ep.last_sent.(i) <- t.now;
      collect (s - 1) (ep.payloads.(i) :: payloads) (size + ep.sizes.(i))
    end
  in
  let payloads, size = collect hi [] (8 + Message.ack_size ack) in
  send_frame ~size t ep (Message.Data { seq = lo; payloads; ack })

(* The held payloads leave as one frame, carrying the due ack. *)
let flush_held t ep =
  if ep.sent_upto < ep.next_seq then begin
    transmit_run t ep ep.sent_upto (ep.next_seq - 1) (take_ack ep);
    ep.sent_upto <- ep.next_seq
  end

(* Drain every frame the faulty channel will currently deliver to [ep]:
   data frames feed the dedup/reorder window payload by payload, acks —
   alone or riding on data — [ep]'s own outgoing stream. One due ack
   answers the whole burst — re-acking on pure duplicates is what lets a
   sender whose ack was lost make progress — its runs gaining the [fresh]
   out-of-order seqs and losing those [released]. An ack that retires
   every frame [ep] has transmitted releases its held payloads, which
   carry the ack just made due. *)
let pump_endpoint t ep peer =
  let fresh = ref [] and released = ref false in
  let take seq payload =
    let i = seq land (Array.length ep.window - 1) in
    if seq < ep.expected || ep.window.(i) != hole then false
    else begin
      ep.window.(i) <- payload;
      if seq > ep.expected then fresh := seq :: !fresh
      else begin
        advance t ep peer;
        if ep.expected > seq + 1 then released := true
      end;
      true
    end
  in
  let rec drain got_data =
    match Channel.receive ep.in_chan with
    | None -> got_data
    | Some (Message.Ack { cum; sacks }) ->
      ack ep cum sacks;
      drain got_data
    | Some (Message.Data { seq; payloads; ack = a }) ->
      Option.iter (fun (cum, sacks) -> ack ep cum sacks) a;
      let last = seq + List.length payloads - 1 in
      while last - ep.expected >= Array.length ep.window do
        ep.window <- regrow ep.window ep.expected hole
      done;
      let seen_all = ref true in
      List.iteri
        (fun k payload -> if take (seq + k) payload then seen_all := false)
        payloads;
      if !seen_all then t.stats.dups_dropped <- t.stats.dups_dropped + 1;
      drain true
    | Some msg ->
      invalid_arg
        ("Reliable: unframed " ^ Message.kind_name msg
       ^ " message on a reliable link")
  in
  if drain false then begin
    let runs = add_seqs (List.sort (fun a b -> b - a) !fresh) ep.buffered in
    ep.buffered <- (if !released then above (ep.expected - 1) runs else runs);
    ep.ack_due <- true
  end;
  if ep.acked = ep.sent_upto - 1 then flush_held t ep

(* A pump with no frame sent and no tick since the last one began would
   find both channels without a deliverable frame — each drain ended on
   an empty receive, which draws nothing — so it is skipped. A pump that
   released held payloads pumps again, so a run sent without delay is
   drained at the tick it left, as every other frame is: drained at the
   next tick, after its due acks left, its ack would return a tick late
   and the frame be resent. *)
let rec pump t =
  if t.dirty then begin
    t.dirty <- false;
    pump_endpoint t t.warehouse_end t.source_end;
    pump_endpoint t t.source_end t.warehouse_end;
    pump t
  end

(* Nagle's rule on the logical clock: a payload sent while a frame of
   its stream is unacknowledged is held, unless the link's channels
   cannot delay a frame ([timeout = 1]), where holding only adds
   latency. *)
let send t dir msg =
  let ep = sender t dir in
  let seq = ep.next_seq in
  if seq - ep.acked > Array.length ep.payloads then begin
    let lo = ep.acked + 1 in
    ep.payloads <- regrow ep.payloads lo hole;
    ep.sizes <- regrow ep.sizes lo 0;
    ep.last_sent <- regrow ep.last_sent lo 0;
    ep.first_sent <- regrow ep.first_sent lo 0
  end;
  let i = seq land (Array.length ep.payloads - 1) in
  ep.next_seq <- seq + 1;
  ep.payloads.(i) <- msg;
  ep.sizes.(i) <- Message.byte_size msg;
  ep.first_sent.(i) <- t.now;
  if ep.acked = ep.sent_upto - 1 || t.timeout = 1 then flush_held t ep;
  pump t

let receive t dir =
  pump t;
  Queue.take_opt (receiver t dir).ready

let has_ready t dir =
  pump t;
  not (Queue.is_empty (receiver t dir).ready)

(* The overdue holes — transmitted, unacked seqs in no run, the runs all
   above [acked] — in ascending seq, so the wire order of
   retransmissions ascends; each maximal run of consecutive ones is
   resent as one frame. A resent frame carries [ep]'s ack only while one
   is due: the ack changes only when data arrives, which makes it due,
   so an ack that is not due has already left. [lo] is the first seq of
   the run being gathered, or -1. *)
let retransmit_due t ep =
  let mask = Array.length ep.payloads - 1 in
  let resend lo s =
    if lo >= 0 then begin
      t.stats.retransmits <- t.stats.retransmits + 1;
      transmit_run t ep lo (s - 1) (take_ack ep)
    end
  in
  let rec go s lo = function
    | _ when s >= ep.sent_upto -> resend lo s
    | (lo', hi) :: runs when lo' = s ->
      resend lo s;
      go (hi + 1) (-1) runs
    | runs ->
      if t.now - ep.last_sent.(s land mask) >= t.timeout then
        go (s + 1) (if lo >= 0 then lo else s) runs
      else begin
        resend lo s;
        go (s + 1) (-1) runs
      end
  in
  go (ep.acked + 1) (-1) (List.rev ep.sacked)

let flush_ack t ep =
  take_ack ep |> Option.iter (fun (cum, sacks) ->
      send_frame t ep (Message.Ack { cum; sacks });
      t.stats.acks_sent <- t.stats.acks_sent + 1)

(* Held payloads leave first, so their frames carry the due acks; the
   acks no data took leave alone; both arrive before any frame is judged
   overdue. *)
let tick t =
  t.now <- t.now + 1;
  t.dirty <- true;
  Channel.tick t.source_end.out_chan;
  Channel.tick t.warehouse_end.out_chan;
  flush_held t t.source_end;
  flush_held t t.warehouse_end;
  flush_ack t t.source_end;
  flush_ack t t.warehouse_end;
  pump t;
  retransmit_due t t.source_end;
  retransmit_due t t.warehouse_end;
  pump t

(* Held payloads are unacknowledged, so an end holding any is not idle. *)
let endpoint_idle ep =
  ep.acked = ep.next_seq - 1 && ep.buffered = [] && Queue.is_empty ep.ready

let idle t =
  pump t;
  Channel.is_empty t.source_end.out_chan
  && Channel.is_empty t.warehouse_end.out_chan
  && endpoint_idle t.source_end
  && endpoint_idle t.warehouse_end

let held t =
  t.source_end.next_seq - t.source_end.sent_upto
  + (t.warehouse_end.next_seq - t.warehouse_end.sent_upto)

let stats t = t.stats
