type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let arity = Array.length
let get = Array.get

let ints ns = Array.of_list (List.map (fun n -> Value.Int n) ns)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i >= la then 0
      else
        match Value.compare a.(i) b.(i) with
        | 0 -> loop (i + 1)
        | c -> c
    in
    loop 0

let equal a b = compare a b = 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let byte_size t = Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 t

let concat = Array.append

let project positions t = Array.map (fun i -> t.(i)) positions

(* Written out as a loop: the projection reads each position from [a]
   or [b] without building their concatenation or a closure. *)
let project_concat positions a b =
  let la = Array.length a and n = Array.length positions in
  if n = 0 then [||]
  else begin
    let p0 = positions.(0) in
    let out = Array.make n (if p0 < la then a.(p0) else b.(p0 - la)) in
    for j = 1 to n - 1 do
      let p = positions.(j) in
      out.(j) <- (if p < la then a.(p) else b.(p - la))
    done;
    out
  end

let to_string t =
  "[" ^ String.concat "," (List.map Value.to_string (Array.to_list t)) ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)
