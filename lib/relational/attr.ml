type t = {
  rel : string option;
  name : string;
}

let qualified rel name = { rel = Some rel; name }

let unqualified name = { rel = None; name }

let compare a b =
  match Option.compare String.compare a.rel b.rel with
  | 0 -> String.compare a.name b.name
  | c -> c

let equal a b = compare a b = 0

(* Terms derived from one view share its projection list, so the
   physical test settles the common case. *)
let equal_list a b = a == b || List.equal equal a b

let to_string a =
  match a.rel with
  | None -> a.name
  | Some r -> r ^ "." ^ a.name

let of_string s =
  match String.index_opt s '.' with
  | None -> unqualified s
  | Some i ->
    qualified (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))

(* [matches ~rel ~name a] holds when attribute reference [a] denotes column
   [name] of relation [rel]: either it is fully qualified and both match, or
   it is unqualified and the column name matches. Ambiguity of unqualified
   references must be ruled out by the caller (see {!Resolve}). *)
let matches ~rel ~name a =
  String.equal a.name name
  && (match a.rel with None -> true | Some r -> String.equal r rel)
