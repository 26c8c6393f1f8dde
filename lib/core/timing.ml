type mode =
  | Immediate
  | Periodic of int
  | Deferred

exception Timing_error of string

(* Buffer notifications and flush them into the inner instance's
   [on_batch] once [threshold] updates are buffered (never, when [None])
   or at a quiescence probe. *)
let buffering ~suffix ~threshold (inner : Algorithm.instance) =
  let buffer = ref [] in
  let buffered = ref 0 in
  let flush () =
    match List.rev !buffer with
    | [] -> Algorithm.nothing
    | us ->
      buffer := [];
      buffered := 0;
      inner.Algorithm.on_batch us
  in
  let push us =
    buffer := List.rev_append us !buffer;
    buffered := !buffered + List.length us;
    match threshold with
    | Some n when !buffered >= n -> flush ()
    | _ -> Algorithm.nothing
  in
  {
    inner with
    Algorithm.name = inner.Algorithm.name ^ suffix;
    (* The buffer observes the whole stream (every update counts toward
       the threshold), so interest widens to everything even when the
       inner algorithm would skip some updates. *)
    interest = None;
    on_update = (fun u -> push [ u ]);
    on_batch = push;
    on_quiesce =
      (fun () -> Algorithm.combine (flush ()) (inner.Algorithm.on_quiesce ()));
    quiescent = (fun () -> !buffer = [] && inner.Algorithm.quiescent ());
  }

let wrap mode inner =
  match mode with
  | Immediate -> inner
  | Periodic n when n < 1 -> raise (Timing_error "Periodic period must be >= 1")
  | Periodic n ->
    buffering ~suffix:(Printf.sprintf "@every-%d" n) ~threshold:(Some n) inner
  | Deferred -> buffering ~suffix:"@deferred" ~threshold:None inner

let creator mode inner_creator cfg = wrap mode (inner_creator cfg)
