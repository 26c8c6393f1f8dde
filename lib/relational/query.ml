type t = Term.t list

let empty = []

let is_empty q = q = []

let of_view v = [ Term.of_view v ]

let of_terms ts = ts

let terms q = q

let negate q = List.map Term.negate q

let plus a b = a @ b

let minus a b = a @ negate b

let subst q (u : Update.t) = List.filter_map (fun t -> Term.subst t u) q

let view_delta v u = subst (of_view v) u

let split_local q =
  List.partition Term.is_all_literals q

(* Cancel T / -T pairs: compensations of compensations can re-introduce a
   term that an earlier compensation subtracted; since queries are signed
   sums, such pairs contribute nothing and need not be shipped or
   evaluated.

   Surviving terms are bucketed by {!Term.hash}, so each incoming term
   compares only against the candidates sharing its opposite's hash —
   ECA's compensation queries grow to hundreds of terms under contention
   and a linear scan with full structural [Term.equal] per element
   dominated whole runs. The cancelled occurrence is the *oldest* match,
   and survivors keep arrival order, exactly as the specification fold
   ([if opposite ∈ acc then remove first occurrence else append]) did. *)
let simplify q =
  match q with
  | [] | [ _ ] -> q
  | _ ->
    let terms = Array.of_list q in
    let n = Array.length terms in
    let alive = Array.make n false in
    (* Term.hash -> indices of live terms, newest first. *)
    let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create (2 * n) in
    for i = 0 to n - 1 do
      let t = terms.(i) in
      let opposite = Term.negate t in
      let cancelled =
        match Hashtbl.find_opt tbl (Term.hash opposite) with
        | None -> false
        | Some bucket ->
          let oldest =
            List.fold_left
              (fun best j ->
                if Term.equal terms.(j) opposite && (best = -1 || j < best)
                then j
                else best)
              (-1) !bucket
          in
          oldest >= 0
          && begin
               alive.(oldest) <- false;
               bucket := List.filter (fun j -> j <> oldest) !bucket;
               true
             end
      in
      if not cancelled then begin
        alive.(i) <- true;
        match Hashtbl.find_opt tbl (Term.hash t) with
        | Some bucket -> bucket := i :: !bucket
        | None -> Hashtbl.add tbl (Term.hash t) (ref [ i ])
      end
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then out := terms.(i) :: !out
    done;
    !out

let base_relations q =
  List.sort_uniq String.compare (List.concat_map Term.base_relations q)

let term_count = List.length

let byte_size q =
  List.fold_left (fun acc t -> acc + Term.byte_size t) 0 q

let equal a b = List.equal Term.equal a b

(* Order-insensitive digest over the signed term multiset — queries are
   commutative sums, so two queries whose terms pair up under
   [Term.signature] agree regardless of construction order. It keys
   skeletons (DESIGN.md §4h): projections are left out, so queries that
   differ only in the columns they keep agree. The warehouse's
   shared-delta table keys on it and confirms candidates with [equal] or
   [widen], which compare term by term in order (today's producers build
   matching queries in the same order, so the stricter check loses no
   sharing while making hash collisions harmless). *)
let signature q =
  List.fold_left (fun acc t -> acc + Term.signature t) (term_count q) q

(* The projection every term keeps, when they all keep the same one. *)
let uniform_proj = function
  | [] -> None
  | (t : Term.t) :: rest ->
    let p = t.Term.proj in
    if List.for_all (fun (t' : Term.t) -> Attr.equal_list p t'.Term.proj) rest
    then Some p
    else None

(* The projection that keeps [ps] and then [pq]'s columns it lacks, in
   [pq]'s order — [ps] itself when it lacks none — and each of [pq]'s
   columns' position in it. *)
let widen_proj ps pq =
  let has l a = List.exists (Attr.equal a) l in
  let missing =
    List.rev
      (List.fold_left
         (fun acc a -> if has ps a || has acc a then acc else a :: acc)
         [] pq)
  in
  let proj = if missing = [] then ps else ps @ missing in
  let position a =
    let rec go i = function
      | [] -> assert false  (* every column of [pq] is in [proj] *)
      | a' :: rest -> if Attr.equal a a' then i else go (i + 1) rest
    in
    go 0 proj
  in
  (proj, Array.of_list (List.map position pq))

(* Widenings keyed by the physical (shipped, rider) projection pair:
   riders carry their view's projection list and a widened shipped query
   carries the list this memo built, so a repeated pair finds its entry
   without a structural compare, and every widened query of the pair
   shares one projection list. *)
type widenings = (Attr.t list * Attr.t list * (Attr.t list * int array)) Memo.t

let widenings = Memo.create

let widen memo ~shipped q =
  match (uniform_proj shipped, uniform_proj q) with
  | Some ps, Some pq when List.equal Term.skeleton_equal shipped q ->
    let _, _, (proj, cols) =
      Memo.find_or_add memo
        ~fits:(fun (ps', pq', _) -> ps' == ps && pq' == pq)
        (fun () -> (ps, pq, widen_proj ps pq))
    in
    let shipped =
      if proj == ps then shipped
      else List.map (fun (t : Term.t) -> { t with Term.proj }) shipped
    in
    Some (shipped, cols)
  | _ -> None

let pp ppf q =
  match q with
  | [] -> Format.pp_print_string ppf "(empty query)"
  | t :: rest ->
    Term.pp ppf t;
    List.iter
      (fun (tm : Term.t) ->
        match tm.Term.sign with
        | Sign.Pos -> Format.fprintf ppf "@ + %a" Term.pp { tm with Term.sign = Sign.Pos }
        | Sign.Neg -> Format.fprintf ppf "@ - %a" Term.pp { tm with Term.sign = Sign.Pos })
      rest

let to_string q = Format.asprintf "%a" pp q
