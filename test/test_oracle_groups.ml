(* The oracle's shared joins (DESIGN.md §4g): the engine groups each
   site's views by the staged program they can share — views that differ
   only in projection advance with one join pass, and views with equal
   definitions share one snapshot. Every recorded source state is
   checked against [Viewdef.eval] over the stream prefix that produced
   it, on random catalogs mixing projection twins, same-definition twins
   and unrelated views over one or two sites, under batching and
   coalescing. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Replaying a trace's source events                                   *)
(* ------------------------------------------------------------------ *)

(* Walk the trace's source events over [db], rewriting the definitions a
   schema change affects, and return the (entry, view) pairs whose
   recorded state differs from a fresh evaluation of the view's current
   definition over the state the event produced. Views outside [views]
   are not checked. *)
let replay_mismatches ~db ~views (r : Core.Engine.result) =
  let defs = Hashtbl.create 8 in
  List.iter (fun (v : R.Viewdef.t) -> Hashtbl.replace defs v.R.Viewdef.name v) views;
  let bad = ref [] in
  let check k db states =
    List.iter
      (fun (name, b) ->
        match Hashtbl.find_opt defs name with
        | Some v when not (R.Bag.equal b (R.Viewdef.eval db v)) ->
          bad := (k, name) :: !bad
        | _ -> ())
      states
  in
  check 0 db (Core.Trace.initial_views r.Core.Engine.trace);
  let db =
    List.fold_left
      (fun (db, k) entry ->
        match entry with
        | Core.Trace.Source_update { updates; source_views } ->
          let db = R.Db.apply_all db updates in
          check k db source_views;
          (db, k + 1)
        | Core.Trace.Source_ddl { ddl; source_views } ->
          let db = R.Evolve.db db ddl in
          Hashtbl.filter_map_inplace
            (fun _ v ->
              Some (if R.Evolve.affects v ddl then R.Evolve.viewdef v ddl else v))
            defs;
          check k db source_views;
          (db, k + 1)
        | _ -> (db, k + 1))
      (db, 1)
      (Core.Trace.entries r.Core.Engine.trace)
    |> fst
  in
  check (-1) db r.Core.Engine.final_source_views;
  List.rev !bad

(* Every recorded state of [a] is physically the one recorded for [b]. *)
let states_shared (r : Core.Engine.result) a b =
  let same states =
    match (List.assoc_opt a states, List.assoc_opt b states) with
    | Some x, Some y -> x == y
    | None, None -> true
    | _ -> false
  in
  same (Core.Trace.initial_views r.Core.Engine.trace)
  && List.for_all
       (function
         | Core.Trace.Source_update { source_views; _ }
         | Core.Trace.Source_ddl { source_views; _ } ->
           same source_views
         | _ -> true)
       (Core.Trace.entries r.Core.Engine.trace)

(* ------------------------------------------------------------------ *)
(* Random catalogs                                                     *)
(* ------------------------------------------------------------------ *)

(* Site [s] owns [s_r1(W, X)] and [s_r2(X, Y)]; two sites have the same
   shapes under different names. *)
let schemas s =
  ( R.Schema.of_names (s ^ "_r1") [ "W"; "X" ],
    R.Schema.of_names (s ^ "_r2") [ "X"; "Y" ] )

(* The skeletons a view may take at a site: the natural join, the join
   with a filter, and [r2] alone. *)
type shape = Join | Filtered | Single

type spec =
  | Fresh of string * shape * int list  (* site, shape, projected columns *)
  | Twin of int  (* the definition of view [i], renamed *)
  | Reproject of int * int list  (* view [i]'s join, another projection *)

let columns site shape =
  let r1, r2 = schemas site in
  let q (s : R.Schema.t) c = R.Attr.qualified s.R.Schema.name c in
  match shape with
  | Join | Filtered -> [ q r1 "W"; q r1 "X"; q r2 "X"; q r2 "Y" ]
  | Single -> [ q r2 "X"; q r2 "Y" ]

let define name site shape cols =
  let r1, r2 = schemas site in
  let all = columns site shape in
  let proj = List.map (List.nth all) cols in
  R.Viewdef.simple
    (match shape with
     | Join -> R.View.natural_join ~name ~proj [ r1; r2 ]
     | Filtered ->
       R.View.natural_join ~name ~proj
         ~extra_cond:
           (R.Predicate.Cmp
              ( R.Predicate.Gt,
                R.Predicate.Col (R.Attr.qualified r1.R.Schema.name "W"),
                R.Predicate.Const (R.Value.Int 1) ))
         [ r1; r2 ]
     | Single -> R.View.natural_join ~name ~proj [ r2 ])

(* The site, shape and columns of every spec, resolving twins. *)
let resolve specs =
  let out = Array.make (List.length specs) ("a", Join, [ 0 ]) in
  List.iteri
    (fun i spec ->
      out.(i) <-
        (match spec with
         | Fresh (site, shape, cols) -> (site, shape, cols)
         | Twin j -> out.(j)
         | Reproject (j, cols) ->
           let site, shape, _ = out.(j) in
           (site, shape, cols)))
    specs;
  out

let catalog specs =
  Array.to_list
    (Array.mapi
       (fun i (site, shape, cols) -> define (Printf.sprintf "V%d" i) site shape cols)
       (resolve specs))

type case = {
  sites : string list;
  specs : spec list;
  init : (R.Schema.t * int list list) list;
  updates : R.Update.t list;
  batch_size : int;
  coalesce : bool;
  share_deltas : bool;
}

let case_of_seed seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let sites = if bool () then [ "a" ] else [ "a"; "b" ] in
  let pick l = List.nth l (int (List.length l)) in
  let cols shape =
    let n = match shape with Single -> 2 | Join | Filtered -> 4 in
    match List.filter (fun _ -> bool ()) (List.init n Fun.id) with
    | [] -> [ int n ]
    | cs -> if bool () then List.rev cs else cs
  in
  let nviews = 2 + int 3 in
  let shapes = Array.make nviews Join and specs = ref [] in
  for i = 0 to nviews - 1 do
    let spec =
      if i = 0 || int 3 = 0 then begin
        let shape = pick [ Join; Filtered; Single ] in
        shapes.(i) <- shape;
        Fresh (pick sites, shape, cols shape)
      end
      else begin
        let j = int i in
        shapes.(i) <- shapes.(j);
        if bool () then Twin j else Reproject (j, cols shapes.(j))
      end
    in
    specs := spec :: !specs
  done;
  let specs = List.rev !specs in
  let rels =
    List.concat_map
      (fun s ->
        let r1, r2 = schemas s in
        [ r1; r2 ])
      sites
  in
  let row () = [ int 4; int 4 ] in
  let init = List.map (fun r -> (r, List.init (2 + int 3) (fun _ -> row ()))) rels in
  let contents = Hashtbl.create 8 in
  List.iter (fun ((r : R.Schema.t), rows) -> Hashtbl.replace contents r.R.Schema.name rows) init;
  let updates =
    List.init (10 + int 15) (fun _ ->
        let r = pick rels in
        let rel = r.R.Schema.name in
        let rows = Hashtbl.find contents rel in
        if rows <> [] && bool () then begin
          let victim = pick rows in
          let rec drop = function
            | [] -> []
            | x :: rest -> if x = victim then rest else x :: drop rest
          in
          Hashtbl.replace contents rel (drop rows);
          del rel victim
        end
        else begin
          let t = row () in
          Hashtbl.replace contents rel (t :: rows);
          ins rel t
        end)
  in
  { sites; specs; init; updates;
    batch_size = pick [ 1; 1; 3 ]; coalesce = bool (); share_deltas = bool () }

let describe c =
  let spec = function
    | Fresh (site, shape, cols) ->
      Printf.sprintf "fresh %s %s [%s]" site
        (match shape with Join -> "join" | Filtered -> "filtered" | Single -> "single")
        (String.concat "," (List.map string_of_int cols))
    | Twin j -> Printf.sprintf "twin of V%d" j
    | Reproject (j, cols) ->
      Printf.sprintf "V%d reprojected [%s]" j
        (String.concat "," (List.map string_of_int cols))
  in
  Printf.sprintf "sites %s; views %s; %d updates; batch %d; coalesce %b; share %b"
    (String.concat "," c.sites)
    (String.concat "; " (List.mapi (fun i s -> Printf.sprintf "V%d = %s" i (spec s)) c.specs))
    (List.length c.updates) c.batch_size c.coalesce c.share_deltas

let run_case c =
  let views = catalog c.specs in
  let site s =
    Core.Engine.site ~name:s
      (db_of (List.filter (fun ((r : R.Schema.t), _) ->
           String.starts_with ~prefix:(s ^ "_") r.R.Schema.name) c.init))
  in
  let r =
    Core.Engine.run ~batch_size:c.batch_size ~coalesce:c.coalesce
      ~share_deltas:c.share_deltas ~creator:(Core.Registry.creator_exn "eca")
      ~sites:(List.map site c.sites) ~views ~updates:c.updates ()
  in
  (views, r)

let twins_share c (r : Core.Engine.result) =
  List.for_all
    (fun (i, spec) ->
      match spec with
      | Twin j -> states_shared r (Printf.sprintf "V%d" i) (Printf.sprintf "V%d" j)
      | Fresh _ | Reproject _ -> true)
    (List.mapi (fun i s -> (i, s)) c.specs)

let oracle_groups_prop =
  QCheck.Test.make
    ~name:"grouped oracle states = Viewdef.eval over every stream prefix"
    ~count:150
    (QCheck.make ~print:(fun seed -> describe (case_of_seed seed))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = case_of_seed seed in
      let views, r = run_case c in
      replay_mismatches ~db:(db_of c.init) ~views r = [] && twins_share c r)

(* ------------------------------------------------------------------ *)
(* Deterministic cases                                                 *)
(* ------------------------------------------------------------------ *)

let wy name = view_wy ~name ()

let w name = view_w ~name ()

let example_db = db_of [ (r1, [ [ 1; 2 ]; [ 3; 2 ] ]); (r2, [ [ 2; 4 ]; [ 2; 5 ] ]) ]

let example_updates =
  [ ins "r1" [ 5; 2 ]; ins "r2" [ 2; 6 ]; del "r1" [ 1; 2 ]; ins "r2" [ 7; 8 ];
    del "r2" [ 2; 4 ] ]

(* One shared program's pass gives each view what its own program
   gives, and views with different joins do not stage together. *)
let shared_program_per_view () =
  let views = [ vd (wy "A"); vd (w "B"); vd (wy "A2") ] in
  let shared = R.Delta_program.stage_shared views in
  List.iter
    (fun (u : R.Update.t) ->
      let acc = Array.make (List.length views) R.Bag.empty in
      Option.iter
        (fun prog ->
          R.Delta_program.apply_shared prog example_db [ u.R.Update.tuple ] acc)
        (R.Delta_program.of_update shared u);
      List.iteri
        (fun j v ->
          let own =
            match R.Delta_program.of_update (R.Delta_program.stage v) u with
            | None -> R.Bag.empty
            | Some p -> R.Delta_program.apply_batch p example_db [ u.R.Update.tuple ]
          in
          check_bag (Printf.sprintf "view %d under %s" j (R.Update.to_string u)) own acc.(j))
        views)
    example_updates;
  check_bool "different joins do not stage together" true
    (match R.Delta_program.stage_shared [ vd (wy "A"); vd (view_w3 ~name:"C" ()) ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* [A] and [A2] are one definition under two names, [B] another
   projection of the same join: the twins' recorded states are the same
   objects at every event, the projection's are its own, and every state
   is the evaluation over its prefix. *)
let twins_share_one_state () =
  let views = [ vd (wy "A"); vd (w "B"); vd (wy "A2") ] in
  let r =
    Core.Engine.run ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source example_db ] ~views ~updates:example_updates ()
  in
  check_bool "states match the prefix evaluations" true
    (replay_mismatches ~db:example_db ~views r = []);
  check_bool "A and A2 share every state" true (states_shared r "A" "A2");
  check_bool "B keeps states of its own" false (states_shared r "A" "B");
  check_bool "the final states are one object" true
    (List.assoc "A" r.Core.Engine.final_source_views
    == List.assoc "A2" r.Core.Engine.final_source_views);
  check_bool "both warehouse copies converge" true
    (R.Bag.equal
       (List.assoc "A" r.Core.Engine.final_mvs)
       (List.assoc "A2" r.Core.Engine.final_mvs))

(* A schema change rewrites the twins and their projection sibling
   mid-stream: the site regroups, the rewritten states match the
   evolved definitions over every prefix, and the twins share their
   states again after each change. *)
let schema_change_regroups () =
  let spec = Workload.Spec.make ~c:8 ~j:2 ~k_updates:16 ~insert_ratio:0.6 ~seed:3 () in
  let { Workload.Scenarios.db; view; updates; ddls } =
    Workload.Scenarios.evolution spec
  in
  let rename name =
    R.View.make ~name ~proj:view.R.View.proj ~cond:view.R.View.cond view.R.View.sources
  in
  let sibling =
    R.View.make ~name:"VK_w" ~proj:[ R.Attr.qualified "r1" "W" ]
      ~cond:view.R.View.cond view.R.View.sources
  in
  let views = [ vd view; vd sibling; vd (rename "VK_twin") ] in
  let r =
    Core.Engine.run ~evolution:ddls ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source db ] ~views ~updates ()
  in
  check_int "every schema change ran" (List.length ddls)
    (List.length
       (List.filter
          (function Core.Trace.Source_ddl _ -> true | _ -> false)
          (Core.Trace.entries r.Core.Engine.trace)));
  check_bool "states match the evolved definitions over every prefix" true
    (replay_mismatches ~db ~views r = []);
  check_bool "the twins share every state, across the changes" true
    (states_shared r view.R.View.name "VK_twin")

(* A window is a per-name lens over the shared state: of two twins, the
   windowed one reports its window and the other the full view, each
   exactly as when hosted alone. *)
let windowed_twin () =
  let view = view_wy ~name:"F" () and twin = view_wy ~name:"FW" () in
  let window = ("FW", { Core.Window.rel = "r2"; col = "Y"; k = 2 }) in
  let run windows views =
    Core.Engine.run ~windows ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source example_db ] ~views ~updates:example_updates ()
  in
  let both = run [ window ] [ vd view; vd twin ] in
  let alone_f = run [] [ vd view ] and alone_fw = run [ window ] [ vd twin ] in
  let states r name = Core.Trace.source_states r.Core.Engine.trace name in
  let same a b = List.equal R.Bag.equal a b in
  check_bool "the unwindowed twin matches every prefix" true
    (replay_mismatches ~db:example_db ~views:[ vd view ] both = []);
  check_bool "the unwindowed twin's states are as when alone" true
    (same (states both "F") (states alone_f "F"));
  check_bool "the windowed twin's states are as when alone" true
    (same (states both "FW") (states alone_fw "FW"));
  check_bool "the window hides something" false
    (same (states both "F") (states both "FW"))

let suite =
  [
    Helpers.qcheck oracle_groups_prop;
    Alcotest.test_case "a shared program's pass = each view's own" `Quick
      shared_program_per_view;
    Alcotest.test_case "same-definition twins share one state" `Quick
      twins_share_one_state;
    Alcotest.test_case "a schema change regroups the site" `Quick
      schema_change_regroups;
    Alcotest.test_case "a window is a per-name lens over a shared state" `Quick
      windowed_twin;
  ]
