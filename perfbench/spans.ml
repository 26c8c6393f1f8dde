(* In-memory spans around the benchmark's timed calls into each layer.

   A span is a name, a wall-clock interval, the span that encloses it
   (its parent, -1 for a root) and the id of the benchmark run it
   belongs to. Spans stay in memory while the benchmark measures and are
   written out as JSONL at the end. A span's self time is its duration
   minus the durations of its children, which are disjoint and lie
   inside it by construction. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  run : int;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  epoch : float;
}

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { spans = []; next = 0; epoch = now () }

let add t ~name ~start ~stop ~parent ~run =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; start; stop; parent; run } :: t.spans

(* Time [f ()] as a span; returns its duration with the result. *)
let time t ~name ~parent ~run f =
  let start = now () in
  let x = f () in
  let stop = now () in
  add t ~name ~start ~stop ~parent ~run;
  (stop -. start, x)

(* A root span whose id is known before its children are recorded: the
   id is reserved first and the interval filled in by [close_root]. *)
let open_root t =
  let id = t.next in
  t.next <- id + 1;
  (id, now ())

let close_root t ~id ~start ~name ~run =
  t.spans <- { id; name; start; stop = now (); parent = -1; run } :: t.spans

let duration s = s.stop -. s.start

(* Self time per span name over the spans of one run. *)
let self_times t ~run =
  let spans = List.filter (fun s -> s.run = run) t.spans in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    spans;
  self

let find_root t ~run ~name =
  List.find (fun s -> s.run = run && s.parent < 0 && String.equal s.name name) t.spans

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"run\":%d}\n"
        s.id s.name
        ((s.start -. t.epoch) *. 1e6)
        ((s.stop -. t.epoch) *. 1e6)
        s.parent s.run)
    (List.rev t.spans);
  close_out oc
