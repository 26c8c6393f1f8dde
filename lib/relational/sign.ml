type t =
  | Pos
  | Neg

let mult a b =
  match a, b with
  | Pos, Pos | Neg, Neg -> Pos
  | Pos, Neg | Neg, Pos -> Neg

let negate = function
  | Pos -> Neg
  | Neg -> Pos

let to_int = function
  | Pos -> 1
  | Neg -> -1

let of_int n = if n >= 0 then Pos else Neg

let equal a b =
  match a, b with
  | Pos, Pos | Neg, Neg -> true
  | Pos, Neg | Neg, Pos -> false

let to_string = function
  | Pos -> "+"
  | Neg -> "-"
