(* The Scenario 1 planner as first written, kept as a reference model:
   it measured the join factor J of every relation it reached, whether
   or not a catalog index priced a probe with it or a later relation
   joined from it. Storage.Planner forces J only where it is read; the
   property in test_storage.ml plans random terms both ways and compares
   the plans, I/O charges and matches_per_probe included. *)

module R = Relational
module P = Storage.Plan
module S = Storage.Stats
module C = Storage.Catalog
module I = Storage.Index
module B = Storage.Block

let relation_blocks cat db rel =
  B.blocks_for cat.C.block ~tuples:(S.cardinality db rel)

let scenario1_term cat db (t : R.Term.t) =
  let bases = R.Term.base_relations t in
  if bases = [] then P.local
  else
    let lits =
      List.filter_map
        (function
          | R.Term.Lit (s, _, _) -> Some s.R.Schema.name
          | R.Term.Base _ -> None)
        t.R.Term.slots
    in
    if lits = [] then
      P.of_steps
        (List.map
           (fun rel -> P.Scan { rel; blocks = relation_blocks cat db rel })
           bases)
    else begin
      let edges = Storage.Planner.join_edges t in
      (* multiplicity rel = expected number of tuples of [rel] that feed
         probes into relations joined to it; literals contribute 1. *)
      let multiplicity : (string, float) Hashtbl.t = Hashtbl.create 8 in
      List.iter (fun r -> Hashtbl.replace multiplicity r 1.0) lits;
      let bound rel = Hashtbl.mem multiplicity rel in
      (* [bound rel] just tested membership, but an unguarded
         [Hashtbl.find] here would still turn any future break of that
         invariant (say, a [remove] slipping into [take]) into an
         anonymous [Not_found] escaping the planner. Fail with the
         broken invariant spelled out instead. *)
      let mult_exn rel =
        match Hashtbl.find_opt multiplicity rel with
        | Some m -> m
        | None ->
          invalid_arg
            (Printf.sprintf
               "Ref_planner.scenario1_term: relation %s is in the bound set but \
                has no multiplicity — bound/multiplicity invariant broken"
               rel)
      in
      let remaining = ref bases in
      let steps = ref [] in
      let k = float_of_int cat.C.block.B.tuples_per_block in
      (* The cheapest edge into [rel] from the bound set: fewest probes. *)
      let best_edge rel =
        List.filter_map
          (fun (ra, aa, rb, ab) ->
            if String.equal rb rel && bound ra then Some (mult_exn ra, ab)
            else if String.equal ra rel && bound rb then Some (mult_exn rb, aa)
            else None)
          edges
        |> List.fold_left
             (fun acc (probes, attr) ->
               match acc with
               | Some (p, _) when p <= probes -> acc
               | _ -> Some (probes, attr))
             None
      in
      let next_reachable () =
        List.find_map
          (fun rel -> Option.map (fun e -> (rel, e)) (best_edge rel))
          !remaining
      in
      let take rel mult =
        remaining := List.filter (fun r -> not (String.equal r rel)) !remaining;
        Hashtbl.replace multiplicity rel mult
      in
      let rec loop () =
        match next_reachable () with
        | Some (rel, (probes, attr)) ->
          let m = S.join_factor db rel attr in
          let idx = C.index_on cat ~rel ~attr in
          let per_probe =
            match idx with
            | Some i when i.I.clustered -> Float.ceil (m /. k)
            | Some _ -> m
            | None -> Float.infinity
          in
          let probe_io = Float.ceil (probes *. per_probe) in
          let scan_io = float_of_int (relation_blocks cat db rel) in
          let step =
            match idx with
            | Some index when probe_io <= scan_io ->
              P.Index_probe
                {
                  index;
                  probes = int_of_float (Float.ceil probes);
                  matches_per_probe = m;
                  io = int_of_float probe_io;
                }
            | Some _ | None -> P.Scan { rel; blocks = int_of_float scan_io }
          in
          steps := step :: !steps;
          take rel (probes *. m);
          loop ()
        | None -> (
          (* Base relations not joined to anything bound: scan them. *)
          match !remaining with
          | [] -> ()
          | rel :: _ ->
            steps :=
              P.Scan { rel; blocks = relation_blocks cat db rel } :: !steps;
            take rel (float_of_int (max 1 (S.cardinality db rel)));
            loop ())
      in
      loop ();
      P.of_steps (List.rev !steps)
    end
