module Fqueue = Relational.Fqueue

type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable duplicated : int;
}

(* A faulty channel's in-flight transmissions, as an AVL tree in delivery
   order: by [ready_at], then by send order. Every node carries its
   subtree's size, so inserting, counting the deliverable prefix
   ([ready_at <= now]) and removing the j-th entry are each O(log n).
   Persistent, with the rebalancing of [Stdlib.Set]. *)
module Delayed = struct
  type t =
    | Empty
    | Node of {
        l : t;
        ready_at : int;
        msg : Message.t;
        r : t;
        h : int;
        size : int;
      }

  let height = function Empty -> 0 | Node n -> n.h

  let size = function Empty -> 0 | Node n -> n.size

  let node l ready_at msg r =
    let hl = height l and hr = height r in
    Node
      {
        l;
        ready_at;
        msg;
        r;
        h = (if hl >= hr then hl + 1 else hr + 1);
        size = size l + size r + 1;
      }

  let bal l ready_at msg r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Node { l = ll; ready_at = lv; msg = lm; r = lr; _ } -> (
        if height ll >= height lr then node ll lv lm (node lr ready_at msg r)
        else
          match lr with
          | Node { l = lrl; ready_at = lrv; msg = lrm; r = lrr; _ } ->
            node (node ll lv lm lrl) lrv lrm (node lrr ready_at msg r)
          | Empty -> assert false)
      | Empty -> assert false
    else if hr > hl + 2 then
      match r with
      | Node { l = rl; ready_at = rv; msg = rm; r = rr; _ } -> (
        if height rr >= height rl then node (node l ready_at msg rl) rv rm rr
        else
          match rl with
          | Node { l = rll; ready_at = rlv; msg = rlm; r = rlr; _ } ->
            node (node l ready_at msg rll) rlv rlm (node rlr rv rm rr)
          | Empty -> assert false)
      | Empty -> assert false
    else node l ready_at msg r

  (* After every entry with an equal or earlier [ready_at]: the newest
     transmission sorts last among equal ready times, which is the
     send-order tie-break. *)
  let rec add ready_at msg = function
    | Empty -> node Empty ready_at msg Empty
    | Node n ->
      if ready_at < n.ready_at then bal (add ready_at msg n.l) n.ready_at n.msg n.r
      else bal n.l n.ready_at n.msg (add ready_at msg n.r)

  (* The deliverable entries are exactly the prefix with [ready_at <= now]. *)
  let rec count_ready now = function
    | Empty -> 0
    | Node n ->
      if n.ready_at <= now then size n.l + 1 + count_ready now n.r
      else count_ready now n.l

  let rec min_ready = function
    | Empty -> max_int
    | Node { l = Empty; ready_at; _ } -> ready_at
    | Node { l; _ } -> min_ready l

  let rec take_min = function
    | Empty -> invalid_arg "Channel.Delayed.take_min"
    | Node { l = Empty; ready_at; msg; r; _ } -> (ready_at, msg, r)
    | Node n ->
      let ready_at, msg, l = take_min n.l in
      (ready_at, msg, bal l n.ready_at n.msg n.r)

  let merge l r =
    match (l, r) with
    | Empty, t | t, Empty -> t
    | _ ->
      let ready_at, msg, r = take_min r in
      bal l ready_at msg r

  (* Remove the [j]-th entry (0-based, delivery order); return its message. *)
  let rec take j = function
    | Empty -> invalid_arg "Channel.Delayed.take"
    | Node n ->
      let sl = size n.l in
      if j < sl then
        let msg, l = take j n.l in
        (msg, bal l n.ready_at n.msg n.r)
      else if j = sl then (n.msg, merge n.l n.r)
      else
        let msg, r = take (j - sl - 1) n.r in
        (msg, bal n.l n.ready_at n.msg r)
end

type t = {
  name : string;
  fault : Fault.profile;
  clean : bool;  (* [Fault.is_none fault], decided once *)
  rng : Random.State.t;
  mutable now : int;
  (* Fault-free channels live entirely in [queue] — O(1) amortized send
     and receive. Faulty channels keep [delayed] instead. *)
  mutable queue : Message.t Fqueue.t;
  mutable delayed : Delayed.t;
  stats : stats;
}

let create ?(fault = Fault.none) ?(seed = 0) name =
  {
    name;
    fault;
    clean = Fault.is_none fault;
    rng = Random.State.make [| seed |];
    now = 0;
    queue = Fqueue.empty;
    delayed = Delayed.Empty;
    stats = { messages = 0; bytes = 0; dropped = 0; duplicated = 0 };
  }

(* One physical transmission: metered, then possibly dropped, then
   enqueued with its own delay. *)
let transmit t msg =
  t.stats.messages <- t.stats.messages + 1;
  t.stats.bytes <- t.stats.bytes + Message.byte_size msg;
  if t.fault.Fault.drop > 0.0 && Random.State.float t.rng 1.0 < t.fault.Fault.drop
  then t.stats.dropped <- t.stats.dropped + 1
  else if t.clean then t.queue <- Fqueue.push t.queue msg
  else begin
    let delay =
      if t.fault.Fault.delay = 0 then 0
      else Random.State.int t.rng (t.fault.Fault.delay + 1)
    in
    t.delayed <- Delayed.add (t.now + delay) msg t.delayed
  end

let send t msg =
  transmit t msg;
  if
    t.fault.Fault.duplicate > 0.0
    && Random.State.float t.rng 1.0 < t.fault.Fault.duplicate
  then begin
    t.stats.duplicated <- t.stats.duplicated + 1;
    transmit t msg
  end

let has_ready t =
  if t.clean then not (Fqueue.is_empty t.queue)
  else Delayed.min_ready t.delayed <= t.now

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
        Random.State.int t.rng (Delayed.count_ready t.now t.delayed)
      else 0
    in
    let msg, rest = Delayed.take j t.delayed in
    t.delayed <- rest;
    Some msg
  end

let is_empty t = Fqueue.is_empty t.queue && Delayed.size t.delayed = 0

let pending t = Fqueue.length t.queue + Delayed.size t.delayed

let tick t = t.now <- t.now + 1

let messages_sent t = t.stats.messages

let bytes_sent t = t.stats.bytes

let dropped t = t.stats.dropped

let duplicated t = t.stats.duplicated

let pp ppf t =
  Format.fprintf ppf "%s [%a]: %d pending, %d sent (%d bytes, %d dropped, %d duplicated)"
    t.name Fault.pp t.fault (pending t) t.stats.messages t.stats.bytes
    t.stats.dropped t.stats.duplicated
