type operand =
  | Col of Attr.t
  | Const of Value.t

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t

let eq a b = Cmp (Eq, a, b)
let col a = Col (Attr.of_string a)
let int n = Const (Value.Int n)

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | True -> []
  | p -> [ p ]

let cmp_holds c n =
  match c with
  | Eq -> n = 0
  | Neq -> n <> 0
  | Lt -> n < 0
  | Le -> n <= 0
  | Gt -> n > 0
  | Ge -> n >= 0

let rec attrs = function
  | True | False -> []
  | Cmp (_, a, b) ->
    let of_op = function Col a -> [ a ] | Const _ -> [] in
    of_op a @ of_op b
  | And (a, b) | Or (a, b) -> attrs a @ attrs b
  | Not p -> attrs p

let eval lookup p =
  let op_value = function
    | Col a -> lookup a
    | Const v -> v
  in
  let rec go = function
    | True -> true
    | False -> false
    | Cmp (c, a, b) ->
      cmp_holds c (Value.compare_for_predicate (op_value a) (op_value b))
    | And (a, b) -> go a && go b
    | Or (a, b) -> go a || go b
    | Not a -> not (go a)
  in
  go p

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let operand_to_string = function
  | Col a -> Attr.to_string a
  | Const v -> Value.to_string v

let rec to_string = function
  | True -> "TRUE"
  | False -> "FALSE"
  | Cmp (c, a, b) ->
    Printf.sprintf "%s %s %s" (operand_to_string a) (cmp_to_string c)
      (operand_to_string b)
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_string a) (to_string b)
  | Not a -> Printf.sprintf "(NOT %s)" (to_string a)

let pp ppf p = Format.pp_print_string ppf (to_string p)

(* A view's terms share its condition, so the physical test settles
   the common case before any structural walk. *)
let rec equal a b =
  a == b
  ||
  match a, b with
  | True, True | False, False -> true
  | Cmp (c1, x1, y1), Cmp (c2, x2, y2) ->
    c1 = c2 && operand_equal x1 x2 && operand_equal y1 y2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
    equal a1 a2 && equal b1 b2
  | Not a1, Not a2 -> equal a1 a2
  | (True | False | Cmp _ | And _ | Or _ | Not _), _ -> false

and operand_equal a b =
  match a, b with
  | Col x, Col y -> Attr.equal x y
  | Const x, Const y -> Value.equal x y
  | (Col _ | Const _), _ -> false
