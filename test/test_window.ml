(* Trailing-k-partition windows (Core.Window) against a brute-force
   reference: the watermark hi is the largest partition observed, and a
   partition p has aged out once hi is k or more above it; partitions
   above the watermark are live. A random case drives one wrapped
   instance through its initial state, an update stream, a view state
   to filter and a query to prune, with short tuples, non-Int partition
   values and partitions on both sides of the watermark. *)

module R = Relational
module W = Core.Window

(* π_{X,Z,Y}(r2) over r2(X, Y, Z), windowed on Y: the partition sits at
   base column 1 but at view position 2, so a mixed-up index shows. *)
let r2 = R.Schema.of_names "r2" [ "X"; "Y"; "Z" ]

let vd =
  R.Viewdef.simple
    (R.View.natural_join ~name:"VP"
       ~proj:
         [
           R.Attr.qualified "r2" "X";
           R.Attr.qualified "r2" "Z";
           R.Attr.qualified "r2" "Y";
         ]
       [ r2 ])

let base_idx = 1
let pos = 2

(* Literal slot schemas a query term may carry: r2 itself, r2 with Y
   first (a rewritten schema), r2 without Y, and another relation with a
   Y column. *)
let slot_schemas =
  [
    r2;
    R.Schema.of_names "r2" [ "Y"; "X" ];
    R.Schema.of_names "r2" [ "X" ];
    R.Schema.of_names "r1" [ "W"; "Y" ];
  ]

type case = {
  k : int;
  init : R.Tuple.t list;  (* the inner instance's initial view state *)
  updates : R.Update.t list;
  probe : R.Tuple.t list;  (* a view state to filter *)
  terms : R.Term.t list;  (* the query the inner instance sends *)
}

let gen_value =
  QCheck.Gen.(
    frequency
      [ (6, map (fun p -> R.Value.Int p) (int_range 0 9));
        (1, return (R.Value.Str "p")) ])

(* Arity 0 to 4: shorter than the view (3) or r2 (3), exact, longer. *)
let gen_tuple =
  QCheck.Gen.(map Array.of_list (list_size (int_range 0 4) gen_value))

let gen_update =
  QCheck.Gen.(
    map3
      (fun ins rel t ->
        (if ins then R.Update.insert else R.Update.delete) rel t)
      (frequency [ (3, return true); (1, return false) ])
      (frequency [ (4, return "r2"); (1, return "r1") ])
      gen_tuple)

let gen_slot =
  QCheck.Gen.(
    frequency
      [
        (1, return (R.Term.Base r2));
        ( 5,
          map2
            (fun s t -> R.Term.Lit (s, R.Sign.Pos, t))
            (oneofl slot_schemas) gen_tuple );
      ])

let gen_term =
  QCheck.Gen.(
    map
      (fun slots ->
        { R.Term.sign = R.Sign.Pos; proj = []; cond = R.Predicate.True; slots })
      (list_size (int_range 1 2) gen_slot))

let gen_case =
  QCheck.Gen.(
    map
      (fun ((k, init, updates), (probe, terms)) ->
        { k; init; updates; probe; terms })
      (pair
         (triple (int_range 0 3)
            (list_size (int_range 0 4) gen_tuple)
            (list_size (int_range 0 6) gen_update))
         (pair
            (list_size (int_range 0 6) gen_tuple)
            (list_size (int_range 0 3) gen_term))))

let print_case c =
  let tuples ts = String.concat " " (List.map R.Tuple.to_string ts) in
  Printf.sprintf "k=%d\ninit: %s\nupdates: %s\nprobe: %s\nterms: %s" c.k
    (tuples c.init)
    (String.concat "; " (List.map R.Update.to_string c.updates))
    (tuples c.probe)
    (String.concat " + " (List.map R.Term.to_string c.terms))

(* ---- the reference ---- *)

(* The Int at column [i] of [t], if [t] reaches it. *)
let int_at t i =
  if i < Array.length t then
    match t.(i) with R.Value.Int p -> Some p | _ -> None
  else None

let max_opt hi p = Some (match hi with None -> p | Some h -> max h p)

let observed hi (u : R.Update.t) =
  if u.R.Update.kind = R.Update.Insert && u.R.Update.rel = "r2" then
    Option.fold ~none:hi ~some:(max_opt hi) (int_at u.R.Update.tuple base_idx)
  else hi

let live ~k hi p = match hi with None -> true | Some h -> h - p < k

let visible ~k hi t =
  Option.fold ~none:true ~some:(live ~k hi) (int_at t pos)

let filtered ~k hi ts = R.Bag.of_list (List.filter (visible ~k hi) ts)

let prunable ~k hi (term : R.Term.t) =
  List.exists
    (function
      | R.Term.Lit (s, _, t) when s.R.Schema.name = "r2" -> (
        match R.Schema.column_index s "Y" with
        | Some i ->
          Option.fold ~none:false
            ~some:(fun p -> not (live ~k hi p))
            (int_at t i)
        | None -> false)
      | R.Term.Lit _ | R.Term.Base _ -> false)
    term.R.Term.slots

(* ---- the property ---- *)

(* The inner instance: view state [init]; an answer to query 0 sends
   [terms] as query 1, and an answer to query 1 (the window's local
   answer to a fully pruned query) does nothing. *)
let stub init terms =
  let nothing = Core.Algorithm.nothing in
  {
    Core.Algorithm.name = "stub";
    interest = None;
    on_update = (fun _ -> nothing);
    on_batch = (fun _ -> nothing);
    on_answer =
      (fun ~id _ ->
        if id = 0 then Core.Algorithm.send_one 1 (R.Query.of_terms terms)
        else nothing);
    mv = (fun () -> R.Bag.of_list init);
    on_quiesce = (fun () -> nothing);
    quiescent = (fun () -> true);
    counters = (fun () -> None);
  }

let fail fmt = QCheck.Test.fail_reportf fmt

let check_case c =
  match W.make { W.rel = "r2"; col = "Y"; k = c.k } vd with
  | exception W.Window_error _ -> c.k < 1 || fail "k = %d rejected" c.k
  | _ when c.k < 1 -> fail "k = %d accepted" c.k
  | st ->
    let k = c.k in
    let inst = W.wrap st (stub c.init c.terms) in
    let hi0 =
      List.fold_left
        (fun hi t -> Option.fold ~none:hi ~some:(max_opt hi) (int_at t pos))
        None c.init
    in
    if W.watermark st <> hi0 then fail "initial watermark";
    let _, _, aged0 = W.counters st in
    let hi =
      List.fold_left
        (fun hi u ->
          ignore (inst.Core.Algorithm.on_update u);
          let hi = observed hi u in
          if W.watermark st <> hi then
            fail "watermark after %s" (R.Update.to_string u);
          hi)
        hi0 c.updates
    in
    (* Each advance ages out as many partitions as it moves. *)
    let _, _, aged = W.counters st in
    let first =
      List.fold_left
        (fun f u -> if f = None then observed None u else f)
        hi0 c.updates
    in
    (match (first, hi) with
     | Some f, Some h when aged - aged0 <> h - f -> fail "aged partitions"
     | _ -> ());
    let probe = R.Bag.of_list c.probe in
    if not (R.Bag.equal (W.filter st probe) (filtered ~k hi c.probe)) then
      fail "filter";
    if not (R.Bag.equal (inst.Core.Algorithm.mv ()) (filtered ~k hi c.init))
    then fail "windowed mv";
    let kept = List.filter (fun t -> not (prunable ~k hi t)) c.terms in
    let pruned0, local0, _ = W.counters st in
    let o = inst.Core.Algorithm.on_answer ~id:0 R.Bag.empty in
    let pruned, local, _ = W.counters st in
    if pruned - pruned0 <> List.length c.terms - List.length kept then
      fail "pruned-term count";
    (match (kept, c.terms, o.Core.Algorithm.send) with
     | [], _ :: _, [] -> if local - local0 <> 1 then fail "local answer count"
     | _, _, [ (1, q) ] ->
       if local <> local0 then fail "answered locally and sent";
       if not (R.Query.equal q (R.Query.of_terms kept)) then
         fail "kept terms: %s" (R.Query.to_string q)
     | _ -> fail "sent %d queries" (List.length o.Core.Algorithm.send));
    true

let window_prop =
  QCheck.Test.make ~name:"window filter, watermark and pruning = brute force"
    ~count:500
    (QCheck.make ~print:print_case gen_case)
    check_case

let suite = [ Helpers.qcheck window_prop ]
