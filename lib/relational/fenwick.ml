type t = {
  tree : int array;
      (* 1-based: [tree.(i)] counts the live slots in (i - lowbit i, i] *)
  live : Bytes.t;  (* one byte per slot, ['\001'] when live *)
  mutable count : int;
  top : int;  (* the largest power of two <= the slot count *)
}

let lowbit i = i land -i

let rec top_of n p = if 2 * p > n then p else top_of n (2 * p)

(* Slots [0, k) live and the rest dead: every tree entry is the overlap
   of its range with the prefix, so the rebuild is one O(n) pass. *)
let fill_prefix t k =
  let n = Bytes.length t.live in
  Bytes.fill t.live 0 k '\001';
  Bytes.fill t.live k (n - k) '\000';
  for i = 1 to n do
    t.tree.(i) <- max 0 (min i k - (i - lowbit i))
  done;
  t.count <- k

let create n =
  if n < 0 then invalid_arg "Fenwick.create";
  {
    tree = Array.make (n + 1) 0;
    live = Bytes.make n '\000';
    count = 0;
    top = (if n = 0 then 0 else top_of n 1);
  }

let count t = t.count

let mem t i = Bytes.get t.live i = '\001'

let set t i live =
  if mem t i <> live then begin
    Bytes.set t.live i (if live then '\001' else '\000');
    let d = if live then 1 else -1 in
    t.count <- t.count + d;
    let n = Bytes.length t.live in
    let i = ref (i + 1) in
    while !i <= n do
      t.tree.(!i) <- t.tree.(!i) + d;
      i := !i + lowbit !i
    done
  end

(* Descend from the top power of two, keeping the largest 1-based
   position whose prefix count is still <= j: the next slot is the
   (j+1)-th live one. *)
let select t j =
  if j < 0 || j >= t.count then invalid_arg "Fenwick.select";
  let n = Bytes.length t.live in
  let pos = ref 0 and rem = ref j and step = ref t.top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= n && t.tree.(next) <= !rem then begin
      pos := next;
      rem := !rem - t.tree.(next)
    end;
    step := !step lsr 1
  done;
  !pos

module Slots = struct
  type nonrec 'a t = {
    mutable vals : 'a array;
    mutable flags : t;
    mutable used : int;  (* slots handed out since the last compaction *)
    hole : 'a;  (* fills every slot that holds no live element *)
  }

  let initial = 16

  let length s = s.flags.count

  (* The array is full: move the live elements to its front, in order,
     and grow it first when they fill more than half of it — so pushes
     between two compactions number at least half the capacity, and a
     push is O(log n) amortized. Allocates only when it grows. *)
  let compact s =
    let cap = Array.length s.vals in
    let live = s.flags.count in
    let vals = if 2 * live > cap then Array.make (2 * cap) s.hole else s.vals in
    let k = ref 0 in
    for i = 0 to s.used - 1 do
      if mem s.flags i then begin
        vals.(!k) <- s.vals.(i);
        incr k
      end
    done;
    if vals == s.vals then begin
      Array.fill vals live (cap - live) s.hole;
      fill_prefix s.flags live
    end
    else begin
      s.vals <- vals;
      let flags = create (Array.length vals) in
      fill_prefix flags live;
      s.flags <- flags
    end;
    s.used <- live

  let push s x =
    if s.used = Array.length s.vals then compact s;
    s.vals.(s.used) <- x;
    set s.flags s.used true;
    s.used <- s.used + 1

  let take s j =
    let i = select s.flags j in
    set s.flags i false;
    let x = s.vals.(i) in
    s.vals.(i) <- s.hole;
    (* Empty again: every tree entry is back to 0, so restart at slot 0. *)
    if s.flags.count = 0 then s.used <- 0;
    x

  (* Last: [create] above is the flags' one. *)
  let create hole =
    { vals = Array.make initial hole; flags = create initial; used = 0; hole }
end
