type t = {
  tuples_per_block : int;
}

exception Invalid_block_model of string

let make ~tuples_per_block =
  if tuples_per_block <= 0 then
    raise (Invalid_block_model "tuples_per_block must be positive");
  { tuples_per_block }

let default = make ~tuples_per_block:20

let blocks_for t ~tuples =
  if tuples <= 0 then 0 else (tuples + t.tuples_per_block - 1) / t.tuples_per_block

let pp ppf t = Format.fprintf ppf "K=%d tuples/block" t.tuples_per_block
