(* The benchmark's three workloads. Every generator seed, fault seed and
   Random schedule seed derives from the one workload seed; the engine
   receives only the generated inputs. All three run in one process on
   one domain, without a shard pool.

   Initial databases and views come from Workload.Scenarios. The update
   streams are generated here: 50/50 inserts and deletes, like the
   scenarios' own, but with each relation's size held within [slack]
   tuples of its start. An unconstrained 50/50 stream is a random walk,
   so relation sizes — and with them per-update work, retained memory
   and set-up time — would spread widely from one seed to the next. *)

module R = Relational
module W = Workload

type t = {
  name : string;
  sites : Core.Engine.site_spec list;
  entries : Core.Catalog.entry list;
  creator : Core.Algorithm.creator;
  views : R.Viewdef.t list;
  updates : R.Update.t list;
  schedule : Core.Scheduler.policy;
  share_deltas : bool;
  coalesce : bool;
}

let names = [ "compensate"; "selfmaint"; "fanout-chaos" ]
let slack = 8

(* A non-negative seed for one use of the workload seed. *)
let derive seed k = Hashtbl.hash (seed, k)

let make ~name ~sites ~entries ~updates ~schedule ?(share_deltas = false)
    ?(coalesce = false) () =
  {
    name;
    sites;
    entries;
    creator = Core.Catalog.creator entries;
    views = Core.Catalog.views entries;
    updates;
    schedule;
    share_deltas;
    coalesce;
  }

(* [k] updates over the relations [pick] draws. A relation at the edge
   of its size band takes the operation that moves it back; otherwise a
   fair coin decides. [insert] and [delete] build the update against the
   current database; [delete] may decline (no eligible tuple), and the
   update becomes an insert. *)
let balanced st ~db ~k ~pick ~insert ~delete =
  let start = Hashtbl.create 16 and size = Hashtbl.create 16 in
  let size_of rel =
    match Hashtbl.find_opt size rel with
    | Some n -> n
    | None ->
      let n = R.Bag.net_cardinality (R.Db.contents db rel) in
      Hashtbl.replace start rel n;
      Hashtbl.replace size rel n;
      n
  in
  let rec go db acc i =
    if i = k then List.rev acc
    else begin
      let rel = pick () in
      let n = size_of rel and n0 = Hashtbl.find start rel in
      let ins =
        if n >= n0 + slack then false
        else if n <= n0 - slack then true
        else Random.State.bool st
      in
      let u =
        if ins then insert db rel
        else match delete db rel with Some u -> u | None -> insert db rel
      in
      let step = match u.R.Update.kind with R.Update.Insert -> 1 | Delete -> -1 in
      Hashtbl.replace size u.rel (size_of u.rel + step);
      go (R.Db.apply db u) (u :: acc) (i + 1)
    end
  in
  go db [] 0

let delete_existing st db rel =
  Option.map (R.Update.delete rel) (W.Generator.pick_existing st db rel)

(* Fresh integer keys per relation, counting up from [from]. *)
let key_counter from =
  let next = Hashtbl.create 16 in
  fun rel ->
    let k = Option.value ~default:from (Hashtbl.find_opt next rel) in
    Hashtbl.replace next rel (k + 1);
    k

let q = R.Attr.qualified

(* One source on the keyed r1(W KEY, X) ⋈ r2(X, Y KEY) scenario hosting
   three projections, one per query rung. Bounded in-flight backpressure
   lets 64 frames pile up on the edge, so queries overlap later updates
   and carry compensation terms. *)
let compensate seed =
  let spec = W.Spec.make ~c:200 ~j:4 ~seed:(derive seed 1) () in
  let db = W.Generator.keyed_db spec in
  let st = Random.State.make [| derive seed 2 |] in
  let dom = W.Spec.join_domain spec in
  let fresh = key_counter spec.c in
  let updates =
    balanced st ~db ~k:1000
      ~pick:(fun () -> if Random.State.bool st then "r1" else "r2")
      ~insert:(fun _ rel ->
        R.Update.insert rel
          (R.Tuple.ints
             (if rel = "r1" then [ fresh rel; Random.State.int st dom ]
              else [ Random.State.int st dom; fresh rel ])))
      ~delete:(delete_existing st)
  in
  let view name proj =
    R.Viewdef.simple (R.View.natural_join ~name ~proj W.Generator.keyed_schemas)
  in
  make ~name:"compensate"
    ~sites:[ Core.Engine.site ~name:"s0" db ]
    ~entries:
      [
        Core.Catalog.entry ~algo:"eca-key" (view "WY" [ q "r1" "W"; q "r2" "Y" ]);
        Core.Catalog.entry ~algo:"eca-local" (view "XY" [ q "r2" "X"; q "r2" "Y" ]);
        Core.Catalog.entry ~algo:"eca" (view "WX" [ q "r1" "W"; q "r1" "X" ]);
      ]
    ~updates ~schedule:(Core.Scheduler.Bounded_inflight 64) ~share_deltas:true ()

(* The foreign-key scenario r1(W KEY, X → r2(X), A) ⋈ r2(X KEY, Y, B):
   one view hosted twice, on ECA-SM (answered from the view and its
   auxiliary views) and on SC (full base copies). The stream keeps
   referential integrity: r1 inserts reference a live r2 key, and r2
   deletes remove only unreferenced rows. *)
let selfmaint seed =
  let spec = W.Spec.make ~c:200 ~j:4 ~seed:(derive seed 1) () in
  let (s : W.Scenarios.setup) = W.Scenarios.selfmaintainable spec in
  let st = Random.State.make [| derive seed 2 |] in
  let x_of t = W.Generator.int_at ~rel:"r1" ~col:"X" t 1 in
  let refs = Hashtbl.create 256 in
  let ref_count x = Option.value ~default:0 (Hashtbl.find_opt refs x) in
  let reference x d = Hashtbl.replace refs x (ref_count x + d) in
  R.Bag.iter (fun t c -> reference (x_of t) c) (R.Db.contents s.db "r1");
  let fresh = key_counter spec.c in
  let small () = Random.State.int st 4 in
  let updates =
    balanced st ~db:s.db ~k:1500
      ~pick:(fun () -> if Random.State.bool st then "r1" else "r2")
      ~insert:(fun db rel ->
        if rel = "r1" then begin
          let partner = Option.get (W.Generator.pick_existing st db "r2") in
          let x = W.Generator.int_at ~rel:"r2" ~col:"X" partner 0 in
          reference x 1;
          R.Update.insert "r1" (R.Tuple.ints [ fresh "r1"; x; small () ])
        end
        else
          R.Update.insert "r2"
            (R.Tuple.ints
               [ fresh "r2"; Random.State.int st spec.value_range; small () ]))
      ~delete:(fun db rel ->
        if rel = "r1" then begin
          let u = delete_existing st db "r1" in
          Option.iter (fun (u : R.Update.t) -> reference (x_of u.tuple) (-1)) u;
          u
        end
        else
          let free =
            List.filter
              (fun (t, _) -> ref_count (W.Generator.int_at ~rel:"r2" ~col:"X" t 0) = 0)
              (R.Bag.to_counted_list (R.Db.contents db "r2"))
          in
          match free with
          | [] -> None
          | _ ->
            let t, _ = List.nth free (Random.State.int st (List.length free)) in
            Some (R.Update.delete "r2" t))
  in
  let twin =
    R.View.natural_join ~name:"VS_sc"
      ~proj:[ q "r1" "W"; q "r2" "Y" ]
      [ W.Generator.selfmaint_r1; W.Generator.selfmaint_r2 ]
  in
  make ~name:"selfmaint"
    ~sites:[ Core.Engine.site ~name:"s0" s.db ]
    ~entries:
      [
        Core.Catalog.entry ~algo:"eca-sm" (R.Viewdef.simple s.view);
        Core.Catalog.entry ~algo:"sc" (R.Viewdef.simple twin);
      ]
    ~updates ~schedule:(Core.Scheduler.Bounded_inflight 16) ()

(* 100 sources, each s{i}_r1(W KEY, X) ⋈ s{i}_r2(X, Y KEY) with one
   auto-rung view; the source of each update is drawn Zipf(1.0). Every
   edge is lossy, duplicating, delaying and reordering under the
   reliable sublayer, with per-edge coalescing. *)
let fanout_chaos seed =
  let n = 100 and c = 20 in
  let w =
    W.Scenarios.scaled ~c ~updates_per_source:0 ~seed:(derive seed 1) ~n ()
  in
  let merged =
    List.fold_left
      (fun acc (_, _, db) ->
        List.fold_left
          (fun acc rel ->
            R.Db.add_relation ~contents:(R.Db.contents db rel) acc (R.Db.schema db rel))
          acc (R.Db.relation_names db))
      R.Db.empty w.sources
  in
  let st = Random.State.make [| derive seed 2 |] in
  let dom = max 1 (c / 2) in
  let fresh = key_counter c in
  let updates =
    balanced st ~db:merged ~k:(n * 40)
      ~pick:(fun () ->
        let i = W.Generator.zipf_below ~skew:1.0 st n in
        Printf.sprintf "s%d_r%d" i (if Random.State.bool st then 1 else 2))
      ~insert:(fun _ rel ->
        R.Update.insert rel
          (R.Tuple.ints
             (if String.ends_with ~suffix:"_r1" rel then
                [ fresh rel; Random.State.int st dom ]
              else [ Random.State.int st dom; fresh rel ])))
      ~delete:(delete_existing st)
  in
  make ~name:"fanout-chaos"
    ~sites:
      (List.mapi
         (fun i (name, catalog, db) ->
           Core.Engine.site ?catalog ~fault:W.Scenarios.chaos_profile
             ~fault_seed:(derive seed (100 + i))
             ~reliable:true ~name db)
         w.sources)
    ~entries:(List.map (fun v -> Core.Catalog.entry (R.Viewdef.simple v)) w.views)
    ~updates
    ~schedule:(Core.Scheduler.Random (derive seed 3))
    ~coalesce:true ()

let build name seed =
  match name with
  | "compensate" -> compensate seed
  | "selfmaint" -> selfmaint seed
  | "fanout-chaos" -> fanout_chaos seed
  | _ ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " names))

(* The rung each hosted view runs on. *)
let rung w view = List.assoc view (Core.Catalog.algorithms w.entries)
