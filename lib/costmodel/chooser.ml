(* The adaptive rung chooser: price each eligible rung over a k-update
   window with the Section-6/Appendix-D forms, driven by measured
   counters, and take the lexicographic minimum (M, B, storage). *)

type measures = {
  updates : int;
  local_deletes : int;
  sm_fallback : int;
  aux_bytes : int;
  base_bytes : int;
}

type candidate = {
  algo : string;
  messages : int;
  transfer : float;
  storage : int;
}

(* The compensating rungs all transfer like ECA, just over fewer
   round-trip updates: the closed form is linear-plus-contention in the
   number of updates actually shipped, so we price a rung by evaluating
   the ECA worst-case form at its remote-update count. *)
let eca_like ~remote =
  {
    algo = "eca";
    messages = Messages.eca ~k:remote;
    transfer = Transfer.eca_worst_k Params.default ~k:remote;
    storage = 0;
  }

let score m eligible =
  let k = max 0 m.updates in
  let clamp n = min (max 0 n) k in
  let price = function
    | "eca" -> Some (eca_like ~remote:k)
    | "eca-key" ->
      (* local deletes never ship; the rest behave like ECA *)
      Some
        { (eca_like ~remote:(k - clamp m.local_deletes)) with
          algo = "eca-key" }
    | "eca-local" ->
      (* same saving as ECAK, realized only between compensations — the
         form is its best case, which is what the paper tabulates *)
      Some
        { (eca_like ~remote:(k - clamp m.local_deletes)) with
          algo = "eca-local" }
    | "eca-sm" ->
      Some
        {
          (eca_like ~remote:(clamp m.sm_fallback)) with
          algo = "eca-sm";
          storage = max 0 m.aux_bytes;
        }
    | "rv" ->
      (* recompute per update *)
      Some
        {
          algo = "rv";
          messages = Messages.rv ~k ~period:1;
          transfer = Transfer.rv_period_k Params.default ~k ~period:1;
          storage = 0;
        }
    | "sc" ->
      Some
        {
          algo = "sc";
          messages = Messages.sc ~k;
          transfer = 0.;
          storage = max 0 m.base_bytes;
        }
    | _ -> None
  in
  List.filter_map price eligible

let better a b =
  let c = compare a.messages b.messages in
  if c <> 0 then c < 0
  else
    let c = compare a.transfer b.transfer in
    if c <> 0 then c < 0
    else
      let c = compare a.storage b.storage in
      if c <> 0 then c < 0 else String.compare a.algo b.algo < 0

let minimum = function
  | [] -> None
  | c :: rest ->
    Some (List.fold_left (fun best c -> if better c best then c else best) c rest)

let choose ?storage_budget m eligible =
  let candidates = score m eligible in
  let affordable =
    match storage_budget with
    | None -> candidates
    | Some b -> List.filter (fun c -> c.storage <= b) candidates
  in
  match minimum affordable with
  | Some c -> Some c
  | None ->
    (* the budget excluded everything: degrade to the leanest-storage
       candidate rather than refusing to choose *)
    minimum
      (List.map (fun c -> { c with messages = c.storage }) candidates)
    |> Option.map (fun c ->
           List.find (fun c' -> String.equal c'.algo c.algo) candidates)

let pp_candidate ppf c =
  Format.fprintf ppf "%s: M=%d B=%.0f storage=%dB" c.algo c.messages c.transfer
    c.storage
