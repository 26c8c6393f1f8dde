(* The self-maintainability analyzer and the ECA-SM rung (DESIGN.md §4j):
   per-class verdicts over key/FK metadata, auxiliary-view contents, a
   warehouse-local replay harness checked against the recompute oracle
   (unit streams and qcheck-random views/streams), and engine-level
   exactness + M = 0 sweeps across the fault matrix. *)

open Helpers
module R = Relational
module SM = R.Selfmaint

let fk cols r rcols =
  { R.Schema.fk_cols = cols; fk_ref = r; fk_ref_cols = rcols }

let verdict_to_string = function
  | SM.Self SM.Literal -> "self (literal)"
  | SM.Self SM.Key_delete -> "self (key-delete)"
  | SM.Self SM.Fk_join -> "self (fk-join)"
  | SM.Aux rels -> Printf.sprintf "local via aux(%s)" (String.concat ", " rels)
  | SM.Remote reason -> Printf.sprintf "remote: %s" reason

let verdict_testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (verdict_to_string v))
    ( = )

let check_verdict = Alcotest.check verdict_testable

let verdict a rel kind =
  match SM.find_class a ~rel ~kind with
  | Some c -> c.SM.cls_verdict
  | None -> Alcotest.failf "analysis has no class for %s" rel

(* ------------------------------------------------------------------ *)
(* The flagship family: s1(W KEY, X, A) with X REFERENCES s2(X), and   *)
(* s2(X KEY, Y, B)                                                     *)
(* ------------------------------------------------------------------ *)

let s1 =
  R.Schema.of_names ~key:[ "W" ]
    ~fks:[ fk [ "X" ] "s2" [ "X" ] ]
    "s1" [ "W"; "X"; "A" ]

let s2 = R.Schema.of_names ~key:[ "X" ] "s2" [ "X"; "Y"; "B" ]

(* Every class warehouse-local through auxiliary views or key-deletes;
   the FK is never needed (Y is read from s2, so an insert into s1 cannot
   derive its partner from the inserted tuple alone). *)
let v_sm ?(name = "SM") () =
  R.View.natural_join ~name
    ~proj:[ R.Attr.qualified "s1" "W"; R.Attr.qualified "s2" "Y" ]
    [ s1; s2 ]

(* Projects only s1 columns: inserts into s1 derive the s2 partner from
   the FK (only s2.X is referenced, and it is pinned by the inserted
   tuple); s1 deletes and both s2 classes read auxiliary views. *)
let v_fk ?(name = "FK") () =
  R.View.natural_join ~name
    ~proj:[ R.Attr.qualified "s1" "X"; R.Attr.qualified "s1" "A" ]
    [ s1; s2 ]

(* The semijoin shape π_{W,X}(s1 ⋈ s2): s2 is a pure FK-derived partner —
   its auxiliary view exists for slot layout but is never maintained. *)
let v_semi ?(name = "SJ") () =
  R.View.natural_join ~name
    ~proj:[ R.Attr.qualified "s1" "W"; R.Attr.qualified "s1" "X" ]
    [ s1; s2 ]

(* A compound (union) viewdef whose second part joins: exercises the
   per-part planning away from the simple-view special cases. *)
let v_union () =
  R.Viewdef.union ~name:"U"
    (vd
       (R.View.make ~name:"U1"
          ~proj:[ R.Attr.qualified "s1" "X" ]
          ~cond:R.Predicate.True [ s1 ]))
    (vd
       (R.View.natural_join ~name:"U2"
          ~proj:[ R.Attr.qualified "s1" "X" ]
          [ s1; s2 ]))

let flagship_db =
  db_of
    [
      (s2, [ [ 1; 10; 0 ]; [ 2; 20; 0 ]; [ 3; 30; 1 ] ]);
      (s1, [ [ 100; 1; 7 ]; [ 101; 2; 8 ] ]);
    ]

(* The mixed family: keys force ECAK eligibility while both insert
   classes stay remote (each partner's auxiliary view would be a full
   copy) — the shape that exercises ECA-SM's fallback path. *)
let m1 = R.Schema.of_names ~key:[ "W" ] "s1" [ "W"; "X" ]
let m2 = R.Schema.of_names ~key:[ "Y" ] "s2" [ "X"; "Y" ]

let v_mixed ?(name = "MX") () =
  R.View.natural_join ~name
    ~proj:[ R.Attr.qualified "s1" "W"; R.Attr.qualified "s2" "Y" ]
    [ m1; m2 ]

let mixed_db =
  db_of [ (m2, [ [ 1; 10 ]; [ 2; 20 ] ]); (m1, [ [ 50; 1 ]; [ 51; 3 ] ]) ]

(* ------------------------------------------------------------------ *)
(* Analyzer verdicts                                                   *)
(* ------------------------------------------------------------------ *)

let analyzer_flagship () =
  let a = SM.analyze (vd (v_sm ())) in
  check_bool "SM fully local" true a.SM.fully_local;
  check_verdict "+s1" (SM.Aux [ "s2" ]) (verdict a "s1" R.Update.Insert);
  check_verdict "-s1" (SM.Self SM.Key_delete) (verdict a "s1" R.Update.Delete);
  check_verdict "+s2" (SM.Aux [ "s1" ]) (verdict a "s2" R.Update.Insert);
  check_verdict "-s2" (SM.Aux [ "s1" ]) (verdict a "s2" R.Update.Delete);
  (* both partners carry maintained auxiliary views: π_{W,X}(s1) and
     π_{X,Y}(s2) — proper reductions (A resp. B are dropped) *)
  let maintained = SM.maintained a in
  check_int "two maintained auxes" 2 (List.length maintained);
  List.iter
    (fun (x : SM.aux) ->
      match x.SM.aux_rel with
      | "s1" -> Alcotest.(check (list int)) "s1 keeps W,X" [ 0; 1 ] x.SM.aux_keep
      | "s2" -> Alcotest.(check (list int)) "s2 keeps X,Y" [ 0; 1 ] x.SM.aux_keep
      | r -> Alcotest.failf "unexpected aux %s" r)
    maintained;
  check_bool "ECA-SM applicable" true (Core.Eca_sm.applicable (vd (v_sm ())));
  check_bool "ladder picks eca-sm" true
    (String.equal (Core.Catalog.auto_rung (vd (v_sm ()))) "eca-sm")

let analyzer_fk () =
  let a = SM.analyze (vd (v_fk ())) in
  check_bool "FK fully local" true a.SM.fully_local;
  check_verdict "+s1 derives partner" (SM.Self SM.Fk_join)
    (verdict a "s1" R.Update.Insert);
  check_verdict "-s1" (SM.Aux [ "s2" ]) (verdict a "s1" R.Update.Delete);
  check_verdict "+s2" (SM.Aux [ "s1" ]) (verdict a "s2" R.Update.Insert);
  check_verdict "-s2" (SM.Aux [ "s1" ]) (verdict a "s2" R.Update.Delete);
  check_bool "ladder picks eca-sm (keys not projected)" true
    (String.equal (Core.Catalog.auto_rung (vd (v_fk ()))) "eca-sm");
  (* the semijoin shape: s2 is FK-only, so its aux is never maintained *)
  let sj = SM.analyze (vd (v_semi ())) in
  check_verdict "+s1 semijoin" (SM.Self SM.Fk_join)
    (verdict sj "s1" R.Update.Insert);
  check_verdict "-s1 semijoin" (SM.Self SM.Key_delete)
    (verdict sj "s1" R.Update.Delete);
  check_int "one maintained aux" 1 (List.length (SM.maintained sj));
  let s2aux =
    List.find (fun (x : SM.aux) -> x.SM.aux_rel = "s2") sj.SM.auxes
  in
  check_bool "s2 aux unmaintained" false s2aux.SM.aux_maintained

let analyzer_union () =
  let a = SM.analyze (v_union ()) in
  check_bool "U fully local" true a.SM.fully_local;
  check_verdict "+s1" (SM.Self SM.Fk_join) (verdict a "s1" R.Update.Insert);
  (* compound views have no key-delete shortcut: deletes read the aux *)
  check_verdict "-s1" (SM.Aux [ "s2" ]) (verdict a "s1" R.Update.Delete);
  check_verdict "+s2" (SM.Aux [ "s1" ]) (verdict a "s2" R.Update.Insert);
  check_verdict "-s2" (SM.Aux [ "s1" ]) (verdict a "s2" R.Update.Delete)

let analyzer_degenerate () =
  (* single-relation view: all classes literal, nothing for ECA-SM to
     improve — the ladder must keep it on plain ECA *)
  let single =
    vd
      (R.View.make ~name:"S"
         ~proj:[ R.Attr.unqualified "W" ]
         ~cond:R.Predicate.True [ r1 ])
  in
  let a = SM.analyze single in
  check_bool "literal view fully local" true a.SM.fully_local;
  check_verdict "+r1 literal" (SM.Self SM.Literal)
    (verdict a "r1" R.Update.Insert);
  check_int "no auxes" 0 (List.length (SM.maintained a));
  check_bool "not applicable" false (Core.Eca_sm.applicable single);
  check_bool "ladder keeps eca" true
    (String.equal (Core.Catalog.auto_rung single) "eca");
  (* keyless join π_W(r1 ⋈ r2): r1's aux would copy it whole (W and X
     are both referenced) — that is SC by another name, so r2's classes
     stay remote and the view is not fully local *)
  let w = vd (view_w ()) in
  let aw = SM.analyze w in
  check_bool "view_w not fully local" false aw.SM.fully_local;
  check_verdict "+r1 keyless" (SM.Aux [ "r2" ]) (verdict aw "r1" R.Update.Insert);
  (match verdict aw "r2" R.Update.Insert with
  | SM.Remote _ -> ()
  | v -> Alcotest.failf "+r2 should be remote, got %s" (verdict_to_string v));
  check_bool "view_w not applicable" false (Core.Eca_sm.applicable w);
  check_bool "view_w ladder unchanged" true
    (String.equal (Core.Catalog.auto_rung w) "eca");
  (* unmentioned relation: no class *)
  check_bool "no class for r3" true
    (SM.find_class aw ~rel:"r3" ~kind:R.Update.Insert = None);
  (* ECAK eligibility still outranks ECA-SM on the ladder *)
  check_bool "keys win the ladder" true
    (String.equal (Core.Catalog.auto_rung (vd (v_mixed ()))) "eca-key")

(* ------------------------------------------------------------------ *)
(* Auxiliary-view contents                                             *)
(* ------------------------------------------------------------------ *)

let aux_seed_and_apply () =
  let a = SM.analyze (vd (v_sm ())) in
  let aux_db = SM.seed_aux_db a flagship_db in
  check_bag "seeded π_{W,X}(s1)"
    (bag [ [ 100; 1 ]; [ 101; 2 ] ])
    (R.Db.contents aux_db "s1");
  check_bag "seeded π_{X,Y}(s2)"
    (bag [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ])
    (R.Db.contents aux_db "s2");
  let tuples, bytes = SM.storage a aux_db in
  check_int "5 aux tuples" 5 tuples;
  check_bool "aux bytes counted" true (bytes > 0);
  let aux_db = SM.apply_aux a aux_db (ins "s1" [ 150; 3; 9 ]) in
  check_bag "insert projected in"
    (bag [ [ 100; 1 ]; [ 101; 2 ]; [ 150; 3 ] ])
    (R.Db.contents aux_db "s1");
  let aux_db = SM.apply_aux a aux_db (del "s1" [ 100; 1; 7 ]) in
  check_bag "delete projected out"
    (bag [ [ 101; 2 ]; [ 150; 3 ] ])
    (R.Db.contents aux_db "s1");
  (* FK-only partners stay empty: present for slot layout, never read *)
  let sj = SM.analyze (vd (v_semi ())) in
  let sj_db = SM.seed_aux_db sj flagship_db in
  check_bag "FK-only partner left empty" R.Bag.empty
    (R.Db.contents sj_db "s2");
  let sj_db = SM.apply_aux sj sj_db (ins "s2" [ 9; 90; 0 ]) in
  check_bag "and never maintained" R.Bag.empty (R.Db.contents sj_db "s2")

(* ------------------------------------------------------------------ *)
(* Replay harness: warehouse-local maintenance vs. recompute oracle    *)
(* ------------------------------------------------------------------ *)

(* Maintain [vdef] through the analysis alone — update tuple, deltas and
   auxiliary database; never the source db except where the plan honestly
   declares a fallback — and compare with recomputation after every
   update. [check] localizes unit-test failures; the bool result is for
   qcheck. *)
let replay_tracks ?(check = fun _ _ _ -> ()) vdef db0 updates =
  let a = SM.analyze vdef in
  let db = ref db0 in
  let mv = ref (R.Viewdef.eval db0 vdef) in
  let aux_db = ref (SM.seed_aux_db a db0) in
  let ok = ref true in
  List.iter
    (fun (u : R.Update.t) ->
      db := R.Db.apply !db u;
      (match SM.find_class a ~rel:u.R.Update.rel ~kind:u.R.Update.kind with
      | None -> ()
      | Some c ->
        (match c.SM.cls_plan with
        | SM.Use_local _ -> (
          match SM.delta a ~aux_db:!aux_db u with
          | Some d -> mv := R.Bag.plus !mv d
          | None -> ok := false)
        | SM.Use_key_delete ->
          let view = Option.get (R.Viewdef.as_simple vdef) in
          mv := Core.Mview.key_delete ~view ~rel:u.R.Update.rel u.R.Update.tuple !mv
        | SM.Use_fallback _ -> mv := R.Viewdef.eval !db vdef);
        aux_db := SM.apply_aux a !aux_db u;
        let oracle = R.Viewdef.eval !db vdef in
        check u oracle !mv;
        if not (R.Bag.equal oracle !mv) then ok := false))
    updates;
  !ok

let int_of_value = function
  | R.Value.Int i -> i
  | v -> Alcotest.failf "non-int value %s" (Format.asprintf "%a" R.Value.pp v)

(* A seeded, integrity-preserving stream over the flagship schemas: s1
   inserts reference live s2 keys, s2 deletes only drop unreferenced
   rows, keys stay unique — exactly the discipline [Db.apply] enforces
   at the source. *)
let sm_stream_of_seed seed =
  let st = rng seed in
  let fresh_w = ref 200 and fresh_x = ref 10 in
  let pick st bag =
    match R.Bag.to_counted_list bag with
    | [] -> None
    | l -> Some (fst (List.nth l (Random.State.int st (List.length l))))
  in
  let n = 12 + Random.State.int st 5 in
  let rec step db acc k =
    if k = 0 then List.rev acc
    else
      let u =
        match Random.State.int st 4 with
        | 0 -> (
          match pick st (R.Db.contents db "s2") with
          | Some t ->
            incr fresh_w;
            Some
              (R.Update.insert "s1"
                 (R.Tuple.ints
                    [
                      !fresh_w;
                      int_of_value (R.Tuple.get t 0);
                      Random.State.int st 3;
                    ]))
          | None -> None)
        | 1 ->
          incr fresh_x;
          Some
            (R.Update.insert "s2"
               (R.Tuple.ints
                  [ !fresh_x; Random.State.int st 50; Random.State.int st 3 ]))
        | 2 -> (
          match pick st (R.Db.contents db "s1") with
          | Some t -> Some (R.Update.delete "s1" t)
          | None -> None)
        | _ -> (
          let referenced =
            R.Bag.fold
              (fun t _ acc -> int_of_value (R.Tuple.get t 1) :: acc)
              (R.Db.contents db "s1")
              []
          in
          let free =
            List.filter
              (fun (t, _) ->
                not (List.mem (int_of_value (R.Tuple.get t 0)) referenced))
              (R.Bag.to_counted_list (R.Db.contents db "s2"))
          in
          match free with
          | [] -> None
          | l ->
            Some
              (R.Update.delete "s2"
                 (fst (List.nth l (Random.State.int st (List.length l))))))
      in
      match u with
      | None -> step db acc k
      | Some u -> step (R.Db.apply db u) (u :: acc) (k - 1)
  in
  (flagship_db, step flagship_db [] n)

(* The mixed family has no FK discipline — only key uniqueness. *)
let mx_stream_of_seed seed =
  let st = rng seed in
  let fresh_w = ref 100 and fresh_y = ref 100 in
  let pick st bag =
    match R.Bag.to_counted_list bag with
    | [] -> None
    | l -> Some (fst (List.nth l (Random.State.int st (List.length l))))
  in
  let n = 12 + Random.State.int st 5 in
  let rec step db acc k =
    if k = 0 then List.rev acc
    else
      let u =
        match Random.State.int st 4 with
        | 0 ->
          incr fresh_w;
          Some
            (R.Update.insert "s1"
               (R.Tuple.ints [ !fresh_w; Random.State.int st 5 ]))
        | 1 ->
          incr fresh_y;
          Some
            (R.Update.insert "s2"
               (R.Tuple.ints [ Random.State.int st 5; !fresh_y ]))
        | 2 -> (
          match pick st (R.Db.contents db "s1") with
          | Some t -> Some (R.Update.delete "s1" t)
          | None -> None)
        | _ -> (
          match pick st (R.Db.contents db "s2") with
          | Some t -> Some (R.Update.delete "s2" t)
          | None -> None)
      in
      match u with
      | None -> step db acc k
      | Some u -> step (R.Db.apply db u) (u :: acc) (k - 1)
  in
  (mixed_db, step mixed_db [] n)

let replay_unit () =
  let named u oracle got =
    check_bag (Printf.sprintf "after %s" (R.Update.to_string u)) oracle got
  in
  let db, updates = sm_stream_of_seed 3 in
  List.iter
    (fun v -> check_bool "tracks" true (replay_tracks ~check:named v db updates))
    [ vd (v_sm ()); vd (v_fk ()); vd (v_semi ()); v_union () ];
  (* the mixed view's insert classes honestly declare the fallback; the
     harness recomputes there, and the local delete classes still track *)
  let db, updates = mx_stream_of_seed 3 in
  check_bool "mixed tracks" true
    (replay_tracks ~check:named (vd (v_mixed ())) db updates)

(* ------------------------------------------------------------------ *)
(* qcheck: random SPJ views over random key/FK metadata                *)
(* ------------------------------------------------------------------ *)

(* Universe: ra(A,B,C), rb(B,D), rc(D,E) — natural joins chain through B
   and D; {ra,rc} alone is a pure cross product. Keys and FKs (ra.B →
   rb.B, rb.D → rc.D) toggle per test case, moving classes between
   Literal / Key_delete / Fk_join / Aux / Remote. *)
type setup = {
  keys : bool * bool * bool;
  fkab : bool;
  fkbd : bool;
  src_mask : int;  (* 1..7, bit i selects relation i *)
  proj_mask : int;  (* over the chosen sources' columns, in slot order *)
  use_cond : bool;
  ops : (int * bool * (int * int * int) * int) list;
      (* (relation, insert?, values, delete-pick) candidates; invalid
         ones — key or FK violations — are skipped, like a source
         transaction that never committed *)
}

let universe { keys = k1, k2, k3; fkab; fkbd; _ } =
  let key b k = if b then k else [] in
  let ra =
    R.Schema.of_names ~key:(key k1 [ "A" ])
      ~fks:(if fkab then [ fk [ "B" ] "rb" [ "B" ] ] else [])
      "ra" [ "A"; "B"; "C" ]
  in
  let rb =
    R.Schema.of_names ~key:(key k2 [ "B" ])
      ~fks:(if fkbd then [ fk [ "D" ] "rc" [ "D" ] ] else [])
      "rb" [ "B"; "D" ]
  in
  let rc = R.Schema.of_names ~key:(key k3 [ "D" ]) "rc" [ "D"; "E" ] in
  (ra, rb, rc)

let build s =
  let ra, rb, rc = universe s in
  let all = [| ra; rb; rc |] in
  let chosen =
    List.filteri (fun i _ -> s.src_mask land (1 lsl i) <> 0) [ ra; rb; rc ]
  in
  let cols =
    List.concat_map
      (fun (sc : R.Schema.t) ->
        List.map
          (fun c -> R.Attr.qualified sc.R.Schema.name c.R.Schema.col_name)
          sc.R.Schema.columns)
      chosen
  in
  let proj = List.filteri (fun i _ -> s.proj_mask land (1 lsl i) <> 0) cols in
  let proj = if proj = [] then [ List.hd cols ] else proj in
  let has_rc =
    List.exists (fun (sc : R.Schema.t) -> sc.R.Schema.name = "rc") chosen
  in
  let extra =
    if s.use_cond && has_rc then
      Some R.Predicate.(Cmp (Gt, col "rc.E", int 1))
    else None
  in
  let view = R.View.natural_join ?extra_cond:extra ~name:"Q" ~proj chosen in
  (* targets before referencers, so FK checks see their relations *)
  let db_empty =
    R.Db.of_list [ (rc, R.Bag.empty); (rb, R.Bag.empty); (ra, R.Bag.empty) ]
  in
  let interp (db, acc) (rsel, is_ins, (a, b, c), didx) =
    let sc = all.(rsel mod 3) in
    let rel = sc.R.Schema.name in
    let existing = R.Bag.to_counted_list (R.Db.contents db rel) in
    let u =
      if is_ins || existing = [] then
        R.Update.insert rel
          (R.Tuple.ints
             (if List.length sc.R.Schema.columns = 3 then [ a; b; c ]
              else [ a; b ]))
      else
        R.Update.delete rel
          (fst (List.nth existing (didx mod List.length existing)))
    in
    match R.Db.apply db u with
    | db' -> (db', u :: acc)
    | exception R.Db.Db_error _ -> (db, acc)
  in
  let rec split_at n = function
    | rest when n = 0 -> ([], rest)
    | [] -> ([], [])
    | x :: rest ->
      let l, r = split_at (n - 1) rest in
      (x :: l, r)
  in
  let seed_ops, stream_ops = split_at 12 s.ops in
  let db0, _ = List.fold_left interp (db_empty, []) seed_ops in
  let _, rev_updates = List.fold_left interp (db0, []) stream_ops in
  (view, db0, List.rev rev_updates)

let setup_gen =
  let open QCheck.Gen in
  let* k1 = bool in
  let* k2 = bool in
  let* k3 = bool in
  let* fkab = bool in
  let* fkbd = bool in
  let* src_mask = 1 -- 7 in
  let* proj_mask = int_bound 127 in
  let* use_cond = bool in
  let* ops =
    list_size (return 26)
      (let* r = int_bound 2 in
       let* i = bool in
       let* a = int_bound 2 in
       let* b = int_bound 2 in
       let* c = int_bound 2 in
       let* d = int_bound 30 in
       return (r, i, (a, b, c), d))
  in
  return { keys = (k1, k2, k3); fkab; fkbd; src_mask; proj_mask; use_cond; ops }

let print_setup s =
  let view, db0, updates = build s in
  Format.asprintf "@[<v>view: %s@,db0: %a@,stream: %s@]"
    (R.View.to_string view) R.Db.pp db0
    (String.concat "; " (List.map R.Update.to_string updates))

let prop_local_classes_track_oracle =
  QCheck.Test.make ~name:"local classes track the recompute oracle"
    ~count:150
    (QCheck.make ~print:print_setup setup_gen)
    (fun s ->
      let view, db0, updates = build s in
      replay_tracks (R.Viewdef.simple view) db0 updates)

let prop_analysis_shape =
  QCheck.Test.make ~name:"verdicts, plans and auxes are structurally sound"
    ~count:150
    (QCheck.make ~print:print_setup setup_gen)
    (fun s ->
      let view, _, _ = build s in
      let a = SM.analyze (R.Viewdef.simple view) in
      let local = function
        | SM.Self _ | SM.Aux _ -> true
        | SM.Remote _ -> false
      in
      a.SM.fully_local
      = List.for_all (fun c -> local c.SM.cls_verdict) a.SM.classes
      && List.for_all
           (fun c ->
             match (c.SM.cls_verdict, c.SM.cls_plan) with
             | SM.Remote _, SM.Use_fallback _ -> true
             | SM.Self SM.Key_delete, SM.Use_key_delete -> true
             | (SM.Self (SM.Literal | SM.Fk_join) | SM.Aux _), SM.Use_local _
               -> true
             | _ -> false)
           a.SM.classes
      && List.for_all
           (fun (x : SM.aux) ->
             List.length x.SM.aux_keep
             = List.length x.SM.aux_schema.R.Schema.columns
             && (not x.SM.aux_maintained)
                || List.length x.SM.aux_keep
                     < List.length x.SM.aux_base.R.Schema.columns
                   || x.SM.aux_cond <> R.Predicate.True)
           a.SM.auxes)

(* An FK derives an insert's partner only when the view equates each FK
   column with the very column it references. Two views break that
   pairing: [crossed] equates xr.C1 with xs.K2 and xr.C2 with xs.K1 under
   the FK (C1, C2) → (K1, K2); [aside] joins xr.E = xs.K while the FK is
   C → K. Neither +xr class may be [Self Fk_join], and ECA-SM must end at
   the recomputed view whatever the stream. *)
let mispaired_fk_views () =
  let crossed_r =
    R.Schema.of_names
      ~fks:[ fk [ "C1"; "C2" ] "xs" [ "K1"; "K2" ] ]
      "xr" [ "A"; "C1"; "C2" ]
  in
  let crossed_s = R.Schema.of_names ~key:[ "K1"; "K2" ] "xs" [ "K1"; "K2" ] in
  let aside_r =
    R.Schema.of_names ~fks:[ fk [ "C" ] "xs" [ "K" ] ] "xr" [ "A"; "C"; "E" ]
  in
  let aside_s = R.Schema.of_names ~key:[ "K" ] "xs" [ "K" ] in
  let view name r s cond =
    vd
      (R.View.make ~name
         ~proj:[ R.Attr.qualified "xr" "A" ]
         ~cond:
           (R.Predicate.conj
              (List.map (fun (a, b) -> Helpers.eq_attrs a b) cond))
         [ r; s ])
  in
  let keys = [ 0; 1; 2 ] in
  [
    ( view "crossed" crossed_r crossed_s
        [ ("xr.C1", "xs.K2"); ("xr.C2", "xs.K1") ],
      crossed_r,
      db_of
        [
          ( crossed_s,
            List.concat_map (fun a -> List.map (fun b -> [ a; b ]) keys) keys );
          (crossed_r, []);
        ] );
    ( view "aside" aside_r aside_s [ ("xr.E", "xs.K") ],
      aside_r,
      db_of [ (aside_s, List.map (fun k -> [ k ]) keys); (aside_r, []) ] );
  ]

(* Inserts and deletes on xr whose FK columns reference live xs rows. *)
let xr_stream seed (r : R.Schema.t) db =
  let st = rng seed in
  let arity = List.length r.R.Schema.columns in
  let _, rev =
    List.fold_left
      (fun (db, acc) _ ->
        let existing = R.Bag.to_counted_list (R.Db.contents db "xr") in
        let u =
          if existing = [] || Random.State.int st 3 > 0 then
            R.Update.insert "xr"
              (R.Tuple.ints (List.init arity (fun _ -> Random.State.int st 3)))
          else
            R.Update.delete "xr"
              (fst (List.nth existing (Random.State.int st (List.length existing))))
        in
        match R.Db.apply db u with
        | db' -> (db', u :: acc)
        | exception R.Db.Db_error _ -> (db, acc))
      (db, []) (List.init 10 Fun.id)
  in
  List.rev rev

let prop_mispaired_fk_stays_exact =
  QCheck.Test.make ~name:"a mispaired FK derives no partner; ECA-SM stays exact"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      List.for_all
        (fun (vdef, r, db) ->
          let updates = xr_stream seed r db in
          let oracle = R.Viewdef.eval (R.Db.apply_all db updates) vdef in
          verdict (SM.analyze vdef) "xr" R.Update.Insert <> SM.Self SM.Fk_join
          && replay_tracks vdef db updates
          && List.for_all
               (fun schedule ->
                 let res =
                   Core.Engine.run ~schedule
                     ~creator:(Core.Registry.creator_exn "eca-sm")
                     ~sites:[ source db ] ~views:[ vdef ] ~updates ()
                 in
                 R.Bag.equal oracle (final_mv res vdef.R.Viewdef.name))
               [ Core.Scheduler.Best_case; Core.Scheduler.Worst_case ])
        (mispaired_fk_views ()))

(* ------------------------------------------------------------------ *)
(* The ECA-SM rung, end to end                                         *)
(* ------------------------------------------------------------------ *)

(* Fully local views: exact final states with zero source round trips —
   M = 0, B = 0 — on a worst-case schedule. *)
let eca_sm_never_queries () =
  let db, updates = sm_stream_of_seed 7 in
  List.iter
    (fun vdef ->
      let name = vdef.R.Viewdef.name in
      let r =
        Core.Engine.run ~schedule:Core.Scheduler.Worst_case
          ~creator:(Core.Registry.creator_exn "eca-sm") ~sites:[ source db ]
          ~views:[ vdef ] ~updates ()
      in
      let oracle = R.Viewdef.eval (R.Db.apply_all db updates) vdef in
      check_bag (name ^ ": exact") oracle (final_mv r name);
      check_int (name ^ ": M = 0") 0
        r.Core.Engine.metrics.Core.Metrics.queries_sent;
      check_int (name ^ ": B = 0") 0
        (r.Core.Engine.metrics.Core.Metrics.query_bytes
        + r.Core.Engine.metrics.Core.Metrics.answer_bytes);
      (* the run surfaces the handling-path split in the metrics block *)
      match r.Core.Engine.metrics.Core.Metrics.selfmaint with
      | None -> Alcotest.failf "%s: no selfmaint metrics" name
      | Some sm ->
        check_int (name ^ ": nothing fell back") 0 sm.Core.Metrics.sm_fallback;
        check_int
          (name ^ ": every update handled locally")
          (List.length updates)
          (sm.Core.Metrics.sm_self + sm.Core.Metrics.sm_aux))
    [ vd (v_sm ()); vd (v_fk ()); vd (v_semi ()); v_union () ];
  (* other rungs report no counters: the block stays [None] and their
     output is byte-identical to the pre-ECA-SM engine *)
  let r =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:(Core.Registry.creator_exn "eca") ~sites:[ source db ]
      ~views:[ vd (v_sm ()) ] ~updates ()
  in
  check_bool "plain eca leaves selfmaint = None" true
    (r.Core.Engine.metrics.Core.Metrics.selfmaint = None)

(* Partially local views do query — but only for the remote classes. *)
let eca_sm_mixed_falls_back () =
  let db, updates = mx_stream_of_seed 5 in
  let vdef = vd (v_mixed ()) in
  let oracle = R.Viewdef.eval (R.Db.apply_all db updates) vdef in
  let run schedule =
    Core.Engine.run ~schedule ~creator:(Core.Registry.creator_exn "eca-sm")
      ~sites:[ source db ] ~views:[ vdef ] ~updates ()
  in
  let worst = run Core.Scheduler.Worst_case in
  check_bag "mixed: exact under worst case" oracle (final_mv worst "MX");
  (* under the best-case schedule each compensation drains before the
     next update, so the local key-delete classes never fall back: the
     query count is exactly one per (remote) insert *)
  let best = run Core.Scheduler.Best_case in
  check_bag "mixed: exact under best case" oracle (final_mv best "MX");
  let inserts =
    List.length
      (List.filter (fun u -> u.R.Update.kind = R.Update.Insert) updates)
  in
  check_int "one query per remote insert, none for local deletes" inserts
    best.Core.Engine.metrics.Core.Metrics.queries_sent

(* Instance-level counters: the handling-path split the metrics surface
   reports. *)
let eca_sm_counters () =
  let db, updates = sm_stream_of_seed 11 in
  let vdef = vd (v_fk ()) in
  let t = Core.Eca_sm.create (Core.Algorithm.Config.of_db vdef db) in
  List.iter
    (fun u -> ignore (Core.Eca_sm.on_update t u : Core.Algorithm.outcome))
    updates;
  check_bag "counters run is exact"
    (R.Viewdef.eval (R.Db.apply_all db updates) vdef)
    (Core.Eca_sm.mv t);
  let c = Core.Eca_sm.counters t in
  check_int "no fallbacks" 0 c.Core.Metrics.sm_fallback;
  check_int "every update handled locally"
    (List.length updates)
    (c.Core.Metrics.sm_self + c.Core.Metrics.sm_aux);
  check_bool "fk path used" true (c.Core.Metrics.sm_self > 0);
  check_bool "aux path used" true (c.Core.Metrics.sm_aux > 0);
  check_bool "aux storage reported" true
    (c.Core.Metrics.sm_aux_views > 0 && c.Core.Metrics.sm_aux_tuples >= 0
   && c.Core.Metrics.sm_aux_bytes >= 0);
  (* maintained auxes require the initial base state *)
  check_bool "create without init_db refuses" true
    (match
       Core.Eca_sm.create
         (Core.Algorithm.Config.make ~view:vdef
            ~init_mv:(R.Viewdef.eval db vdef) ())
     with
    | exception Core.Algorithm.Not_applicable _ -> true
    | _ -> false)

(* The metrics blocks under the window and timing wrappers: the
   self-maintenance block is the ECA-SM instance's and passes through
   both wrappers unchanged, while the window counters come from the
   window states and land in the evolution block. The values are pinned
   to those of the string-keyed counters this typed surface replaced. *)
let metrics_under_wrappers () =
  let db, updates = sm_stream_of_seed 7 in
  let windows = [ ("SM", { Core.Window.rel = "s1"; col = "W"; k = 3 }) ] in
  let run ?(windows = []) ?(timing = Core.Timing.Immediate) algo =
    (Core.Engine.run ~schedule:Core.Scheduler.Worst_case ~windows
       ~creator:(Core.Timing.creator timing (Core.Registry.creator_exn algo))
       ~sites:[ source db ] ~views:[ vd (v_sm ()) ] ~updates ())
      .Core.Engine.metrics
  in
  let sm =
    Some
      {
        Core.Metrics.sm_self = 4;
        sm_aux = 8;
        sm_fallback = 0;
        sm_aux_views = 2;
        sm_aux_tuples = 5;
        sm_aux_bytes = 40;
      }
  in
  let window_block ~pruned ~local =
    Some
      {
        Core.Metrics.ddl_applied = 0;
        views_rebuilt = 0;
        refresh_queries = 0;
        stale_answers = 0;
        retired_answers = 0;
        win_pruned_terms = pruned;
        win_local_answers = local;
        win_aged_partitions = 102;
      }
  in
  let check label expected got = check_bool label true (expected = got) in
  let eca = run ~windows "eca" in
  check "windowed eca: no selfmaint block" None eca.Core.Metrics.selfmaint;
  check "windowed eca: the window counters"
    (window_block ~pruned:2 ~local:2)
    eca.Core.Metrics.evolution;
  check "eca-sm: the selfmaint block" sm (run "eca-sm").Core.Metrics.selfmaint;
  let windowed = run ~windows "eca-sm" in
  check "windowed eca-sm: the unwrapped selfmaint block" sm
    windowed.Core.Metrics.selfmaint;
  check "windowed eca-sm: the window counters"
    (window_block ~pruned:0 ~local:0)
    windowed.Core.Metrics.evolution;
  List.iter
    (fun (label, timing) ->
      check (label ^ " eca-sm: the unwrapped selfmaint block") sm
        (run ~timing "eca-sm").Core.Metrics.selfmaint;
      check (label ^ " windowed eca-sm: the unwrapped selfmaint block") sm
        (run ~windows ~timing "eca-sm").Core.Metrics.selfmaint)
    [ ("periodic-3", Core.Timing.Periodic 3); ("deferred", Core.Timing.Deferred) ]

(* ------------------------------------------------------------------ *)
(* 40-seed sweep: every rung equals the oracle across the fault matrix *)
(* ------------------------------------------------------------------ *)

let sweep_scenarios =
  [
    ("worst/clean", Core.Scheduler.Worst_case, None, false);
    ("best/clean", Core.Scheduler.Best_case, None, false);
    ("best/reliable", Core.Scheduler.Best_case, None, true);
    ( "worst/loss",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~drop:0.3 ()),
      true );
    ( "worst/dup",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~duplicate:0.4 ()),
      true );
    ( "worst/delay",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~delay:3 ()),
      true );
    ( "worst/reorder",
      Core.Scheduler.Worst_case,
      Some (Messaging.Fault.make ~reorder:true ()),
      true );
    ("worst/chaos", Core.Scheduler.Worst_case, Some Workload.Scenarios.chaos_profile, true);
  ]

let sweep_cases =
  [
    ((fun () -> vd (v_sm ())), `Flagship, [ "eca"; "eca-local"; "eca-sm" ]);
    ((fun () -> vd (v_fk ())), `Flagship, [ "eca"; "eca-sm" ]);
    ( (fun () -> vd (v_mixed ())),
      `Mixed,
      [ "eca"; "eca-key"; "eca-local"; "eca-sm" ] );
  ]

let rungs_match_oracle ~schedule ~fault ~reliable seed =
  List.for_all
    (fun (mk, family, algos) ->
      let db, updates =
        match family with
        | `Flagship -> sm_stream_of_seed seed
        | `Mixed -> mx_stream_of_seed seed
      in
      let vdef = mk () in
      let oracle = R.Viewdef.eval (R.Db.apply_all db updates) vdef in
      List.for_all
        (fun algo ->
          let r =
            Core.Engine.run ~schedule ~creator:(Core.Registry.creator_exn algo)
              ~sites:[ source ?fault ~fault_seed:seed ~reliable db ]
              ~views:[ vdef ] ~updates ()
          in
          R.Bag.equal oracle
            (List.assoc vdef.R.Viewdef.name r.Core.Engine.final_mvs)
          && ((not (String.equal algo "eca-sm"))
             || family = `Mixed
             || r.Core.Engine.metrics.Core.Metrics.queries_sent = 0))
        algos)
    sweep_cases

let sweep () =
  List.iter
    (fun (label, schedule, fault, reliable) ->
      List.iter
        (fun (seed, ok) ->
          check_bool (Printf.sprintf "%s seed %d" label seed) true ok)
        (par_map
           (fun seed ->
             (seed, rungs_match_oracle ~schedule ~fault ~reliable seed))
           (List.init 40 (fun i -> i))))
    sweep_scenarios

(* The ladder reads the analysis's verdicts without staging a program;
   its picks are the ones it made when it read a whole staged analysis,
   recorded per view. *)
let auto_rung_picks_unchanged () =
  (* dune runtest runs the suite in the build's test directory; `dune
     exec test/main.exe` from the project root. *)
  let script name =
    let path =
      List.find Sys.file_exists
        (List.map
           (fun dir -> Filename.concat dir name)
           [ "../examples/scripts"; "examples/scripts" ])
    in
    (R.Parser.parse_script (In_channel.with_open_bin path In_channel.input_all))
      .R.Script.views
  in
  List.iter
    (fun (where, (vd : R.Viewdef.t), rung) ->
      let cell = Printf.sprintf " (%s, view %s)" where vd.R.Viewdef.name in
      Alcotest.(check string) ("auto_rung" ^ cell) rung
        (Core.Catalog.auto_rung vd);
      check_bool ("verdicts = the staged analysis's" ^ cell) true
        (SM.verdicts vd
        = List.map (fun c -> c.SM.cls_verdict) (SM.analyze vd).SM.classes))
    (List.concat_map
       (fun (name, rungs) ->
         List.map2 (fun vd rung -> (name, vd, rung)) (script name) rungs)
       [
         ("example2.sql", [ "eca" ]);
         ("retail.sql", [ "eca-key" ]);
         ("selfmaint.sql", [ "eca-sm" ]);
         ("union_watchlist.sql", [ "eca" ]);
       ]
    @ [
        ( "selfmaint scenario",
          R.Viewdef.simple
            (Workload.Scenarios.selfmaintainable (Workload.Spec.make ~c:4 ~j:2 ~seed:1 ()))
              .Workload.Scenarios.view,
          "eca-sm" );
      ])

let suite =
  [
    Alcotest.test_case "analyzer: flagship verdicts" `Quick analyzer_flagship;
    Alcotest.test_case "analyzer: FK derivation" `Quick analyzer_fk;
    Alcotest.test_case "analyzer: compound views" `Quick analyzer_union;
    Alcotest.test_case "analyzer: degenerate shapes" `Quick analyzer_degenerate;
    Alcotest.test_case "auxiliary views: seed, apply, storage" `Quick
      aux_seed_and_apply;
    Alcotest.test_case "replay: local plans track the oracle" `Quick
      replay_unit;
    Helpers.qcheck prop_local_classes_track_oracle;
    Helpers.qcheck prop_analysis_shape;
    Alcotest.test_case "eca-sm: M = 0 on fully local views" `Quick
      eca_sm_never_queries;
    Alcotest.test_case "eca-sm: fallback on remote classes" `Quick
      eca_sm_mixed_falls_back;
    Alcotest.test_case "eca-sm: handling-path counters" `Quick eca_sm_counters;
    Alcotest.test_case "eca-sm: metrics blocks under wrappers" `Quick
      metrics_under_wrappers;
    Alcotest.test_case "eca-sm: 40-seed oracle sweep" `Quick sweep;
    Alcotest.test_case "auto_rung picks unchanged on scripts and scenario"
      `Quick auto_rung_picks_unchanged;
    Helpers.qcheck prop_mispaired_fk_stays_exact;
  ]
