type 'a t = {
  front : 'a list;  (* oldest first *)
  back : 'a list;  (* newest first *)
  length : int;
}

let empty = { front = []; back = []; length = 0 }

let is_empty t = t.length = 0

let length t = t.length

let push t x = { t with back = x :: t.back; length = t.length + 1 }

let pop t =
  match t.front with
  | x :: front -> Some (x, { t with front; length = t.length - 1 })
  | [] -> (
    match List.rev t.back with
    | [] -> None
    | x :: front -> Some (x, { front; back = []; length = t.length - 1 }))

let peek t =
  match t.front with
  | x :: _ -> Some x
  | [] -> ( match List.rev t.back with [] -> None | x :: _ -> Some x)

let to_list t = t.front @ List.rev t.back

let of_list l = { front = l; back = []; length = List.length l }

let rec drop_while p t =
  match t.front with
  | x :: front when p x -> drop_while p { t with front; length = t.length - 1 }
  | _ :: _ -> t
  | [] -> (
    match t.back with
    | [] -> t
    | back -> drop_while p { front = List.rev back; back = []; length = t.length })

(* The answered element is nearly always the oldest, so the head is
   tried first; anything else (a raw reordering channel) rebuilds. *)
let remove_first p t =
  match pop t with
  | Some (x, rest) when p x -> (Some x, rest)
  | _ ->
    let rec drop acc = function
      | [] -> (None, t)
      | x :: xs ->
        if p x then (Some x, of_list (List.rev_append acc xs)) else drop (x :: acc) xs
    in
    drop [] (to_list t)

let fold f init t =
  List.fold_left f (List.fold_left f init t.front) (List.rev t.back)
