module R = Relational

(* Equi-join edges of a term: [(relA, attrA, relB, attrB)] for every
   top-level conjunct [relA.attrA = relB.attrB] with distinct relations. *)
let join_edges (t : R.Term.t) = R.Plan.relation_joins t.R.Term.cond

let relation_blocks cat db rel =
  Block.blocks_for cat.Catalog.block ~tuples:(Stats.cardinality db rel)

(* ------------------------------------------------------------------ *)
(* Scenario 1: indexes + ample memory.                                 *)
(*                                                                     *)
(* Literal slots seed the join. Each base relation reachable through a *)
(* join edge is fetched either by index probes — one probe per tuple   *)
(* of the relation on the other side of the edge, as in Appendix D's   *)
(* IO1..IO3 derivations — or by one full scan, whichever is cheaper    *)
(* (the paper's min(J, I) choice). Unreachable base relations are      *)
(* scanned. A term with no literal slots reads every base relation.    *)
(*                                                                     *)
(* The join factor J is measured only where it is read: the price of a *)
(* probe through a catalog index, or the multiplicity of a relation    *)
(* that still feeds a later join. Both are lazy, so a relation probed  *)
(* without an index and joined to nothing after it costs no statistic. *)
(* ------------------------------------------------------------------ *)

let scenario1_term cat db ~edges (t : R.Term.t) =
  let bases = R.Term.base_relations t in
  if bases = [] then Plan.local
  else
    let lits =
      List.filter_map
        (function
          | R.Term.Lit (s, _, _) -> Some s.R.Schema.name
          | R.Term.Base _ -> None)
        t.R.Term.slots
    in
    if lits = [] then
      Plan.of_steps
        (List.map
           (fun rel -> Plan.Scan { rel; blocks = relation_blocks cat db rel })
           bases)
    else begin
      (* multiplicity rel = expected number of tuples of [rel] that feed
         probes into relations joined to it; literals contribute 1.
         Forced only when a later relation joins from [rel]. *)
      let multiplicity : (string, float Lazy.t) Hashtbl.t = Hashtbl.create 8 in
      List.iter (fun r -> Hashtbl.replace multiplicity r (Lazy.from_val 1.0)) lits;
      let bound rel = Hashtbl.mem multiplicity rel in
      (* [bound rel] just tested membership, but an unguarded
         [Hashtbl.find] here would still turn any future break of that
         invariant (say, a [remove] slipping into [take]) into an
         anonymous [Not_found] escaping the planner. Fail with the
         broken invariant spelled out instead. *)
      let mult_exn rel =
        match Hashtbl.find_opt multiplicity rel with
        | Some m -> Lazy.force m
        | None ->
          invalid_arg
            (Printf.sprintf
               "Planner.scenario1_term: relation %s is in the bound set but \
                has no multiplicity — bound/multiplicity invariant broken"
               rel)
      in
      let remaining = ref bases in
      let steps = ref [] in
      let k = float_of_int cat.Catalog.block.Block.tuples_per_block in
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
          let m = lazy (Stats.join_factor db rel attr) in
          let idx = Catalog.index_on cat ~rel ~attr in
          let per_probe =
            match idx with
            | Some i when i.Index.clustered -> Float.ceil (Lazy.force m /. k)
            | Some _ -> Lazy.force m
            | None -> Float.infinity
          in
          let probe_io = Float.ceil (probes *. per_probe) in
          let scan_io = float_of_int (relation_blocks cat db rel) in
          let step =
            match idx with
            | Some index when probe_io <= scan_io ->
              Plan.Index_probe
                {
                  index;
                  probes = int_of_float (Float.ceil probes);
                  matches_per_probe = Lazy.force m;
                  io = int_of_float probe_io;
                }
            | Some _ | None -> Plan.Scan { rel; blocks = int_of_float scan_io }
          in
          steps := step :: !steps;
          take rel (lazy (probes *. Lazy.force m));
          loop ()
        | None -> (
          (* Base relations not joined to anything bound: scan them. *)
          match !remaining with
          | [] -> ()
          | rel :: _ ->
            steps :=
              Plan.Scan { rel; blocks = relation_blocks cat db rel } :: !steps;
            take rel (Lazy.from_val (float_of_int (max 1 (Stats.cardinality db rel))));
            loop ())
      in
      loop ();
      Plan.of_steps (List.rev !steps)
    end

(* ------------------------------------------------------------------ *)
(* Scenario 2: no indexes, three free memory blocks, nested loops.     *)
(*                                                                     *)
(* With b base relations, the first b-1 (in slot order) are outer      *)
(* loops read in chunks and the last is the inner scan. Two buffers    *)
(* are available for outer chunks when b = 2, one per outer otherwise. *)
(* Following Appendix D, only inner scans are charged unless the       *)
(* catalog asks for outer reads too.                                   *)
(* ------------------------------------------------------------------ *)

(* Matching on the reversed relation list makes the outer/inner split
   total: the all-literal term ([] — nothing to read) and the
   single-relation term fall out as their trivial plans instead of
   feeding a partial splitter. *)
let scenario2_term cat db (t : R.Term.t) =
  let bases = R.Term.base_relations t in
  match List.rev bases with
  | [] -> Plan.local
  | [ rel ] ->
    Plan.of_steps [ Plan.Scan { rel; blocks = relation_blocks cat db rel } ]
  | inner :: rev_outers ->
    let b = List.length bases in
    let outer_rels = List.rev rev_outers in
    let buffers_per_outer = if b = 2 then 2 else 1 in
    let outers =
      List.map
        (fun rel ->
          let c = Stats.cardinality db rel in
          ( rel,
            max 1
              (Block.blocks_for cat.Catalog.block
                 ~tuples:((c + buffers_per_outer - 1) / buffers_per_outer)) ))
        outer_rels
    in
    let chunk_product =
      List.fold_left (fun acc (_, chunks) -> acc * chunks) 1 outers
    in
    let inner_blocks = relation_blocks cat db inner in
    let inner_io = chunk_product * inner_blocks in
    let outer_io =
      if not cat.Catalog.count_outer_reads then 0
      else
        let rec charge prefix = function
          | [] -> 0
          | (rel, chunks) :: rest ->
            let blocks = relation_blocks cat db rel in
            (prefix * blocks) + charge (prefix * chunks) rest
        in
        charge 1 outers
    in
    Plan.of_steps
      [ Plan.Nested_loop { outers; inner; inner_blocks; io = inner_io + outer_io } ]

let plan cat db ~edges t =
  match cat.Catalog.mode with
  | Catalog.Indexed_memory -> scenario1_term cat db ~edges t
  | Catalog.Limited_memory -> scenario2_term cat db t

let term cat db t = plan cat db ~edges:(join_edges t) t

let query cat db q = Plan.concat (List.map (term cat db) (R.Query.terms q))
