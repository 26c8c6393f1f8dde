type 'a t = {
  buf : 'a option array;
  mutable next : int;  (* next write slot *)
  mutable count : int;  (* live entries, <= capacity *)
  mutable dropped : int;  (* overwritten entries *)
}

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { buf = Array.make capacity None; next = 0; count = 0; dropped = 0 }

let dropped t = t.dropped

let push t x =
  if t.count = Array.length t.buf then t.dropped <- t.dropped + 1
  else t.count <- t.count + 1;
  t.buf.(t.next) <- Some x;
  t.next <- (t.next + 1) mod Array.length t.buf

let to_list t =
  let cap = Array.length t.buf in
  let start = (t.next - t.count + cap) mod cap in
  List.init t.count (fun i ->
      match t.buf.((start + i) mod cap) with
      | Some x -> x
      | None -> invalid_arg "Ring.to_list: hole in live window")
