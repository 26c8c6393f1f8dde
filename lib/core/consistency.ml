module R = Relational

type report = {
  convergent : bool;
  weakly_consistent : bool;
  consistent : bool;
  strongly_consistent : bool;
  complete : bool;
}

(* One pass, no double traversal: state sequences grow with the trace
   length, and every consistency check starts here. *)
let rec last = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: rest -> last rest

let convergent ~source_states ~warehouse_states =
  match last source_states, last warehouse_states with
  | Some s, Some w -> R.Bag.equal s w
  | _ -> false

type verdicts = { weak : bool; ordered : bool; covers : bool Lazy.t }

(* Weak consistency and consistency in one pointer pass over the
   warehouse states; coverage on demand afterwards.

   Consistency is greedy earliest-match: each warehouse state maps to the
   earliest value-equal source state at or after the previous match —
   complete for this "subsequence with repeats" problem, since if any
   non-decreasing assignment exists the greedy one also succeeds. The
   match pointer never moves back, so the source states are scanned
   once, comparing stored fingerprints (O(1) each), and the pass is
   linear.

   A fingerprint match is confirmed with [Bag.equal_since] from the last
   confirmed (warehouse, source) pair: installs are built from the
   previous install and source snapshots from the previous snapshot, so
   each confirmation diffs only the few tuples that changed since. A
   collision costs one failed confirmation, never a wrong match; a
   warehouse state physically equal to the last confirmed one confirms
   in O(1). Once the order breaks, the remaining warehouse states only
   need some equal source state, found through a fingerprint index
   built then. *)
let judge ~source_states ~warehouse_states =
  let src = Array.of_list source_states in
  let n = Array.length src in
  let hit = Array.make n false in
  let last = ref None in
  let confirm w p =
    let s = src.(p) in
    let ok =
      match !last with
      | Some pair -> R.Bag.equal_since pair w s
      | None -> R.Bag.equal w s
    in
    if ok then last := Some (w, s);
    ok
  in
  let index =
    lazy
      (let t = Hashtbl.create (max 16 n) in
       Array.iteri (fun p s -> Hashtbl.add t (R.Bag.fingerprint s) p) src;
       t)
  in
  let weak = ref true and ordered = ref true and from = ref 0 in
  let find w =
    let fp = R.Bag.fingerprint w in
    let rec scan p =
      if p >= n then None
      else if R.Bag.fingerprint src.(p) = fp && confirm w p then Some p
      else scan (p + 1)
    in
    match if !ordered then scan !from else None with
    | Some p ->
      from := p;
      Some p
    | None ->
      ordered := false;
      List.find_opt (confirm w) (Hashtbl.find_all (Lazy.force index) fp)
  in
  List.iter
    (fun w ->
      match find w with
      | Some p -> hit.(p) <- true
      | None ->
        weak := false;
        ordered := false)
    warehouse_states;
  (* A source state is covered when a warehouse state matched it, when it
     equals its covered predecessor (usually the same object, or a few
     tuples away), or, failing both, when some warehouse state with its
     fingerprint equals it. *)
  let covers =
    lazy
      (let by_fp =
         lazy
           (let t = Hashtbl.create 64 in
            List.iter (fun w -> Hashtbl.add t (R.Bag.fingerprint w) w) warehouse_states;
            t)
       in
       let covered i =
         let s = src.(i) in
         hit.(i)
         || (i > 0
            &&
            let p = src.(i - 1) in
            R.Bag.equal_since (p, p) p s)
         || List.exists (R.Bag.equal s)
              (Hashtbl.find_all (Lazy.force by_fp) (R.Bag.fingerprint s))
       in
       let rec go i = i >= n || (covered i && go (i + 1)) in
       go 0)
  in
  { weak = !weak; ordered = !ordered; covers }

let check ~source_states ~warehouse_states =
  let convergent = convergent ~source_states ~warehouse_states in
  let v = judge ~source_states ~warehouse_states in
  let strongly_consistent = v.ordered && convergent in
  {
    convergent;
    weakly_consistent = v.weak;
    consistent = v.ordered;
    strongly_consistent;
    complete = strongly_consistent && Lazy.force v.covers;
  }

let strongest_label r =
  if r.complete then "complete"
  else if r.strongly_consistent then "strongly consistent"
  else if r.consistent then "consistent"
  else if r.weakly_consistent && r.convergent then "weakly consistent + convergent"
  else if r.weakly_consistent then "weakly consistent"
  else if r.convergent then "convergent only"
  else "inconsistent"

let pp ppf r =
  Format.fprintf ppf
    "convergent=%b weak=%b consistent=%b strong=%b complete=%b (%s)"
    r.convergent r.weakly_consistent r.consistent r.strongly_consistent
    r.complete (strongest_label r)
