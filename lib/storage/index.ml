type t = {
  rel : string;
  attr : string;
  clustered : bool;
}

let clustered rel attr = { rel; attr; clustered = true }
let unclustered rel attr = { rel; attr; clustered = false }

(* I/Os to fetch [matches] tuples through this index: clustered indexes
   read contiguous blocks, unclustered indexes pay one I/O per tuple
   (Appendix D, Scenario 1). Index pages themselves are memory-resident
   and free, as the paper assumes. *)
let probe_io t ~block ~matches =
  if matches <= 0 then 0
  else if t.clustered then Block.blocks_for block ~tuples:matches
  else matches

let pp ppf t =
  Format.fprintf ppf "%s INDEX ON %s(%s)"
    (if t.clustered then "CLUSTERED" else "UNCLUSTERED")
    t.rel t.attr
