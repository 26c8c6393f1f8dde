module Fqueue = Relational.Fqueue
module Slots = Relational.Fenwick.Slots

(* A faulty channel's in-flight transmissions, in delivery order: by
   [ready_at], then by send order.

   - Frames still delayed wait in a wheel of [delay + 1] buckets, one per
     residue of [ready_at mod (delay + 1)]. A sampled delay lies in
     [0, delay], so a bucket only ever holds frames of one ready tick, in
     send order.
   - Deliverable frames ([ready_at <= now]) sit in [ripe], in delivery
     order: a tick appends the bucket that ripens, a send with delay 0
     appends directly. Every frame appended by tick [now] was sent before
     any frame sent at [now], so appending keeps the order.

   So the deliverable count is [ripe]'s length, and taking the j-th
   deliverable frame is one rank select: the draw bound and the chosen
   frame are those of a sorted sequence of every frame in flight. *)
type bucket = {
  mutable frames : Message.t array;
  mutable len : int;
}

(* Fills the slots of [ripe] and of the buckets that hold no frame. *)
let hole = Message.filler

let bucket_push b msg =
  if b.len = Array.length b.frames then begin
    let frames = Array.make (max 4 (2 * b.len)) hole in
    Array.blit b.frames 0 frames 0 b.len;
    b.frames <- frames
  end;
  b.frames.(b.len) <- msg;
  b.len <- b.len + 1

type t = {
  name : string;
  fault : Fault.profile;
  clean : bool;  (* [Fault.is_none fault], decided once *)
  rng : Random.State.t;
  mutable now : int;
  (* Fault-free channels live entirely in [queue] — O(1) amortized send
     and receive. Faulty channels keep [wheel] and [ripe] instead. *)
  mutable queue : Message.t Fqueue.t;
  wheel : bucket array;
  mutable delayed : int;  (* frames in [wheel] *)
  ripe : Message.t Slots.t;
  mutable messages : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable duplicated : int;
}

let create ?(fault = Fault.none) ?(seed = 0) name =
  let clean = Fault.is_none fault in
  {
    name;
    fault;
    clean;
    rng = Random.State.make [| seed |];
    now = 0;
    queue = Fqueue.empty;
    wheel =
      (if clean || fault.Fault.delay = 0 then [||]
       else
         Array.init (fault.Fault.delay + 1) (fun _ ->
             { frames = [||]; len = 0 }));
    delayed = 0;
    ripe = Slots.create hole;
    messages = 0;
    bytes = 0;
    dropped = 0;
    duplicated = 0;
  }

(* One physical transmission of [size] bytes: metered, then possibly
   dropped, then enqueued with its own delay. *)
let transmit t msg size =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + size;
  if t.fault.Fault.drop > 0.0 && Random.State.float t.rng 1.0 < t.fault.Fault.drop
  then t.dropped <- t.dropped + 1
  else if t.clean then t.queue <- Fqueue.push t.queue msg
  else begin
    let delay =
      if t.fault.Fault.delay = 0 then 0
      else Random.State.int t.rng (t.fault.Fault.delay + 1)
    in
    if delay = 0 then Slots.push t.ripe msg
    else begin
      bucket_push t.wheel.((t.now + delay) mod Array.length t.wheel) msg;
      t.delayed <- t.delayed + 1
    end
  end

(* The copy has the original's size: [Message.byte_size] walks the
   payload, so it is taken once — or not at all when the caller already
   knows it. *)
let send ?size t msg =
  let size = match size with Some n -> n | None -> Message.byte_size msg in
  transmit t msg size;
  if
    t.fault.Fault.duplicate > 0.0
    && Random.State.float t.rng 1.0 < t.fault.Fault.duplicate
  then begin
    t.duplicated <- t.duplicated + 1;
    transmit t msg size
  end

let has_ready t =
  if t.clean then not (Fqueue.is_empty t.queue)
  else Slots.length t.ripe > 0

let receive t =
  if t.clean then
    match Fqueue.pop t.queue with
    | None -> None
    | Some (msg, rest) ->
      t.queue <- rest;
      Some msg
  else if not (has_ready t) then None
  else begin
    (* One deliverable message: uniformly under reorder (one RNG draw over
       the deliverable count, the bound every earlier spelling drew, so
       seeded runs are unchanged), the earliest otherwise. *)
    let j =
      if t.fault.Fault.reorder then
        Random.State.int t.rng (Slots.length t.ripe)
      else 0
    in
    Some (Slots.take t.ripe j)
  end

let pending t =
  if t.clean then Fqueue.length t.queue else t.delayed + Slots.length t.ripe

let is_empty t = pending t = 0

(* The bucket of the new [now] ripens whole, in send order. *)
let tick t =
  t.now <- t.now + 1;
  if Array.length t.wheel > 0 then begin
    let b = t.wheel.(t.now mod Array.length t.wheel) in
    for k = 0 to b.len - 1 do
      Slots.push t.ripe b.frames.(k);
      b.frames.(k) <- hole
    done;
    t.delayed <- t.delayed - b.len;
    b.len <- 0
  end

let delay_bound t = t.fault.Fault.delay

let messages_sent t = t.messages

let bytes_sent t = t.bytes

let dropped t = t.dropped

let duplicated t = t.duplicated

let pp ppf t =
  Format.fprintf ppf "%s [%a]: %d pending, %d sent (%d bytes, %d dropped, %d duplicated)"
    t.name Fault.pp t.fault (pending t) t.messages t.bytes
    t.dropped t.duplicated
