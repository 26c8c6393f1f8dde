(* The workload generator's draws as first written, kept as a reference
   model together with the update loops that call them. [pick_existing]
   sorted the whole relation for every delete, the self-maintainable
   stream's [unreferenced_r2] filtered a sorted copy of r2 against a
   list of r1's X values, and [zipf_below] re-summed its weights on every
   draw. The generator in lib draws by rank over the ordered column index
   ([Db.nth], [Db.fold_sorted]) instead, and binary-searches cached Zipf
   prefix sums; the sweep in test_workload.ml regenerates each stream
   with these draws and compares the two, update for update. *)

module R = Relational
module G = Workload.Generator
module Spec = Workload.Spec

let rand_below st n = if n <= 0 then 0 else Random.State.int st n

(* The Zipf draw as first written: the weights re-summed on every draw,
   then walked until the running sum reaches the target. *)
let zipf_below ~skew st n =
  if n <= 0 then 0
  else if skew <= 0.0 then Random.State.int st n
  else begin
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) skew)
    done;
    let target = Random.State.float st !total in
    let rec pick i acc =
      if i >= n - 1 then i
      else
        let acc = acc +. (1.0 /. Float.pow (float_of_int (i + 1)) skew) in
        if acc >= target then i else pick (i + 1) acc
    in
    pick 0 0.0
  end

let pick_existing st db rel =
  let contents = R.Db.contents db rel in
  let n = R.Bag.net_cardinality contents in
  if n = 0 then None
  else begin
    let target = rand_below st n in
    let chosen = ref None in
    let seen = ref 0 in
    List.iter
      (fun (t, cnt) ->
        if !chosen = None && cnt > 0 then begin
          if target < !seen + cnt then chosen := Some t;
          seen := !seen + cnt
        end)
      (R.Bag.to_counted_list contents);
    !chosen
  end

let unreferenced_r2 st db =
  let referenced =
    R.Bag.fold
      (fun t _ acc -> G.int_at ~rel:"r1" ~col:"X" t 1 :: acc)
      (R.Db.contents db "r1") []
  in
  let free =
    List.filter
      (fun (t, _) -> not (List.mem (G.int_at ~rel:"r2" ~col:"X" t 0) referenced))
      (R.Bag.to_counted_list (R.Db.contents db "r2"))
  in
  match free with
  | [] -> None
  | l -> Some (fst (List.nth l (rand_below st (List.length l))))

(* [k] updates, each built by [next st db i] against the evolving state. *)
let stream st ~db ~k next =
  let rec go db acc i =
    if i >= k then List.rev acc
    else
      let u = next st db i in
      go (R.Db.apply db u) (u :: acc) (i + 1)
  in
  go db [] 0

let delete_or st db rel fallback =
  match pick_existing st db rel with
  | Some t -> R.Update.delete rel t
  | None -> fallback ()

let chain_tuple (spec : Spec.t) st rel =
  let dom = Spec.join_domain spec in
  let join () = zipf_below ~skew:spec.Spec.skew st dom in
  match rel with
  | "r1" -> R.Tuple.ints [ rand_below st spec.Spec.value_range; join () ]
  | "r2" -> R.Tuple.ints [ join (); join () ]
  | _ -> R.Tuple.ints [ join (); rand_below st spec.Spec.value_range ]

let example6_updates ?(round_robin = true) (spec : Spec.t) ~db =
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let rels = [| "r1"; "r2"; "r3" |] in
  stream st ~db ~k:spec.Spec.k_updates (fun st db i ->
      let rel = if round_robin then rels.(i mod 3) else rels.(rand_below st 3) in
      let insert () = R.Update.insert rel (chain_tuple spec st rel) in
      if Random.State.float st 1.0 < spec.Spec.insert_ratio then insert ()
      else delete_or st db rel insert)

let keyed_updates (spec : Spec.t) ~db =
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let dom = Spec.join_domain spec in
  let next_w = ref spec.Spec.c and next_y = ref spec.Spec.c in
  let fresh rel () =
    if rel = "r1" then begin
      incr next_w;
      R.Update.insert "r1" (R.Tuple.ints [ !next_w - 1; rand_below st dom ])
    end
    else begin
      incr next_y;
      R.Update.insert "r2" (R.Tuple.ints [ rand_below st dom; !next_y - 1 ])
    end
  in
  stream st ~db ~k:spec.Spec.k_updates (fun st db _ ->
      let rel = if rand_below st 2 = 0 then "r1" else "r2" in
      if Random.State.float st 1.0 < spec.Spec.insert_ratio then fresh rel ()
      else delete_or st db rel (fresh rel))

let selfmaint_updates (spec : Spec.t) ~db =
  let vr = spec.Spec.value_range in
  let st = Random.State.make [| spec.Spec.seed + 1 |] in
  let next_w = ref spec.Spec.c and next_x = ref spec.Spec.c in
  let insert_r2 () =
    incr next_x;
    R.Update.insert "r2" (R.Tuple.ints [ !next_x - 1; rand_below st vr; rand_below st 4 ])
  in
  let insert_r1 db =
    match pick_existing st db "r2" with
    | None -> insert_r2 ()
    | Some t ->
      let x = G.int_at ~rel:"r2" ~col:"X" t 0 in
      incr next_w;
      R.Update.insert "r1" (R.Tuple.ints [ !next_w - 1; x; rand_below st 4 ])
  in
  stream st ~db ~k:spec.Spec.k_updates (fun st db _ ->
      let is_insert = Random.State.float st 1.0 < spec.Spec.insert_ratio in
      match (rand_below st 2 = 0, is_insert) with
      | true, true -> insert_r1 db
      | false, true -> insert_r2 ()
      | true, false -> delete_or st db "r1" (fun () -> insert_r1 db)
      | false, false -> (
        match unreferenced_r2 st db with
        | Some t -> R.Update.delete "r2" t
        | None -> insert_r2 ()))

(* [Scenarios.scaled]'s interleaved stream over its initial source
   databases [dbs], which are updated in place. *)
let scaled_updates ~c ~updates_per_source ~insert_ratio ~skew ~seed dbs =
  let n = Array.length dbs in
  let dom = max 1 (c / 2) in
  let st = Random.State.make [| seed + 1; n |] in
  let next_w = Array.make n c and next_y = Array.make n c in
  let fresh i r1 () =
    if r1 then begin
      next_w.(i) <- next_w.(i) + 1;
      R.Update.insert (Printf.sprintf "s%d_r1" i)
        (R.Tuple.ints [ next_w.(i) - 1; Random.State.int st dom ])
    end
    else begin
      next_y.(i) <- next_y.(i) + 1;
      R.Update.insert (Printf.sprintf "s%d_r2" i)
        (R.Tuple.ints [ Random.State.int st dom; next_y.(i) - 1 ])
    end
  in
  List.init (n * updates_per_source) (fun _ ->
      let i = zipf_below ~skew st n in
      let r1 = Random.State.int st 2 = 0 in
      let rel = Printf.sprintf "s%d_%s" i (if r1 then "r1" else "r2") in
      let u =
        if Random.State.float st 1.0 < insert_ratio then fresh i r1 ()
        else delete_or st dbs.(i) rel (fresh i r1)
      in
      dbs.(i) <- R.Db.apply dbs.(i) u;
      u)
