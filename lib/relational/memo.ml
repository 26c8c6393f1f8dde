type 'a t = { mutable entries : 'a list (* newest first *) }

let create () = { entries = [] }

(* The skeletons an owner meets are per view part (and literal mask), so
   the bound only caps a stream of fresh ones. *)
let bound = 64

let find_or_add m ~fits build =
  match List.find_opt fits m.entries with
  | Some x -> x
  | None ->
    let x = build () in
    m.entries <- x :: (if List.length m.entries >= bound then [] else m.entries);
    x
