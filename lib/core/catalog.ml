module R = Relational

exception Catalog_error of string

let error fmt = Format.kasprintf (fun s -> raise (Catalog_error s)) fmt

(* The warehouse's view catalog: N registered views, each tagged with its
   own maintenance-algorithm rung (a {!Registry} key). This is the
   registration-time half of the multi-view warehouse — the run-time
   half is {!Warehouse}'s per-instance lifecycles and the shared-delta
   (MQO) dedup it applies across them. *)

type entry = {
  view : R.Viewdef.t;
  algo : string;  (* a Registry key *)
  window : Window.spec option;  (* trailing-k-partition restriction *)
}

(* The algorithm ladder, cheapest round trips first: ECAK handles every
   update class that can go wrong with no compensation at all, ECA-SM
   buys zero round trips on every class for the storage cost of its
   auxiliary views (its [applicable] requires full locality, so the
   guarantee is structural), ECAL still saves the round trip on covered
   deletes, ECA is the universal compensating fallback. SC (zero round
   trips, full base copies) is deliberately not auto-chosen — its
   storage cost is a policy decision, not a structural one; ECA-SM's
   proper-reduction requirement is what keeps it on the right side of
   that line. *)
let auto_rung (vd : R.Viewdef.t) =
  if Eca_key.applicable vd then "eca-key"
  else if Eca_sm.applicable vd then "eca-sm"
  else if Eca_sm.local_capable vd then "eca-local"
  else "eca"

let entry ?algo ?window view =
  let algo =
    match algo with
    | Some a ->
      if Registry.find a = None then
        error "catalog entry %s names unknown algorithm %S (known: %s)"
          view.R.Viewdef.name a
          (String.concat ", " Registry.names);
      a
    | None -> auto_rung view
  in
  (* Validate the window spec eagerly — registration, not first
     dispatch, is where a bad partition attribute should fail. *)
  (match window with
  | Some spec -> ignore (Window.make spec view)
  | None -> ());
  { view; algo; window }

let views entries = List.map (fun e -> e.view) entries

let windows entries =
  List.filter_map
    (fun e ->
      Option.map (fun spec -> (e.view.R.Viewdef.name, spec)) e.window)
    entries

let algorithms entries =
  List.map (fun e -> (e.view.R.Viewdef.name, e.algo)) entries

(* One creator dispatching per view name — what the engine's
   [Warehouse.create] expects. Checked up front: duplicate view
   names would make dispatch ambiguous, and every algorithm key is
   resolved before any instance is built. *)
let creator entries =
  if entries = [] then error "a view catalog needs at least one entry";
  let tbl = Hashtbl.create (List.length entries) in
  List.iter
    (fun e ->
      let name = e.view.R.Viewdef.name in
      if Hashtbl.mem tbl name then
        error "catalog registers view %s twice" name;
      Hashtbl.replace tbl name (Registry.creator_exn e.algo))
    entries;
  fun (cfg : Algorithm.Config.t) ->
    let name = cfg.Algorithm.Config.view.R.Viewdef.name in
    match Hashtbl.find_opt tbl name with
    | Some c -> c cfg
    | None -> error "no catalog entry for view %s" name
