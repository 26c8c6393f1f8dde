type profile = {
  drop : float;
  duplicate : float;
  delay : int;
  reorder : bool;
}

let none = { drop = 0.0; duplicate = 0.0; delay = 0; reorder = false }

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(delay = 0) ?(reorder = false) () =
  if drop < 0.0 || drop >= 1.0 then
    invalid_arg "Fault.make: drop must be in [0, 1)";
  if duplicate < 0.0 || duplicate > 1.0 then
    invalid_arg "Fault.make: duplicate must be in [0, 1]";
  if delay < 0 then invalid_arg "Fault.make: delay must be non-negative";
  { drop; duplicate; delay; reorder }

let is_none p = p = none

let pp ppf p =
  if is_none p then Format.fprintf ppf "clean"
  else
    Format.fprintf ppf "drop=%.2f dup=%.2f delay<=%d%s" p.drop p.duplicate
      p.delay
      (if p.reorder then " reorder" else "")
