type transport =
  | Direct
  | Via_reliable of Reliable.t

type t = {
  to_warehouse : Channel.t;
  to_source : Channel.t;
  transport : transport;
}

type direction = Reliable.dir =
  | To_warehouse
  | To_source

let create ?(name = "source") ?(fault = Fault.none) ?(seed = 0)
    ?(reliable = false) () =
  let to_warehouse = Channel.create ~fault ~seed (name ^ "->warehouse") in
  let to_source = Channel.create ~fault ~seed:(seed + 1) ("warehouse->" ^ name) in
  let transport =
    if reliable then
      Via_reliable (Reliable.create ~to_warehouse ~to_source)
    else Direct
  in
  { to_warehouse; to_source; transport }

let channel t = function
  | To_warehouse -> t.to_warehouse
  | To_source -> t.to_source

let send t dir msg =
  match t.transport with
  | Direct -> Channel.send (channel t dir) msg
  | Via_reliable r -> Reliable.send r dir msg

let receive t dir =
  match t.transport with
  | Direct -> Channel.receive (channel t dir)
  | Via_reliable r -> Reliable.receive r dir

let can_receive t dir =
  match t.transport with
  | Direct -> Channel.has_ready (channel t dir)
  | Via_reliable r -> Reliable.has_ready r dir

let tick t =
  match t.transport with
  | Direct ->
    Channel.tick t.to_warehouse;
    Channel.tick t.to_source
  | Via_reliable r -> Reliable.tick r

let idle t =
  match t.transport with
  | Direct -> Channel.is_empty t.to_warehouse && Channel.is_empty t.to_source
  | Via_reliable r -> Reliable.idle r

let load t =
  Channel.pending t.to_warehouse + Channel.pending t.to_source
  + match t.transport with Direct -> 0 | Via_reliable r -> Reliable.held r

let reliability t =
  match t.transport with
  | Direct -> None
  | Via_reliable r -> Some (Reliable.stats r)

let total_messages t =
  Channel.messages_sent t.to_warehouse + Channel.messages_sent t.to_source

let total_bytes t =
  Channel.bytes_sent t.to_warehouse + Channel.bytes_sent t.to_source

let total_dropped t =
  Channel.dropped t.to_warehouse + Channel.dropped t.to_source

let total_duplicated t =
  Channel.duplicated t.to_warehouse + Channel.duplicated t.to_source
