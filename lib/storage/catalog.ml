type mode =
  | Indexed_memory
  | Limited_memory

type t = {
  mode : mode;
  block : Block.t;
  indexes : Index.t list;
  count_outer_reads : bool;
  share_scans : bool;
}

let make ?(mode = Indexed_memory) ?(block = Block.default) ?(indexes = [])
    ?(count_outer_reads = false) ?(share_scans = false) () =
  { mode; block; indexes; count_outer_reads; share_scans }

let index_on t ~rel ~attr =
  let candidates =
    List.filter
      (fun (i : Index.t) ->
        String.equal i.Index.rel rel && String.equal i.Index.attr attr)
      t.indexes
  in
  (* Prefer a clustered index when both exist. *)
  match List.find_opt (fun (i : Index.t) -> i.Index.clustered) candidates with
  | Some i -> Some i
  | None -> ( match candidates with i :: _ -> Some i | [] -> None)

(* The physical setup of Appendix D, Scenario 1, for Example 6's schema
   r1(W,X) ⋈ r2(X,Y) ⋈ r3(Y,Z): clustering indexes on X for r1 and r2, a
   clustering index on Y for r3, and a non-clustering index on Y for r2. *)
let example6_indexes =
  [
    Index.clustered "r1" "X";
    Index.clustered "r2" "X";
    Index.clustered "r3" "Y";
    Index.unclustered "r2" "Y";
  ]

let pp ppf t =
  Format.fprintf ppf "%s, %a, %d indexes"
    (match t.mode with
     | Indexed_memory -> "scenario 1 (indexed, ample memory)"
     | Limited_memory -> "scenario 2 (no indexes, 3 memory blocks)")
    Block.pp t.block (List.length t.indexes)
