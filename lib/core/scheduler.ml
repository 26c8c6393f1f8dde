type action =
  | Apply_update
  | Source_receive
  | Warehouse_receive

type event =
  | Apply
  | Site_source of int
  | Site_warehouse of int

exception Schedule_error of string

type policy =
  | Best_case
  | Worst_case
  | Round_robin
  | Random of int
  | Explicit of action list
  | Bounded_inflight of int
  | Weighted_fair of int

module Iset = Set.Make (Int)

(* The incrementally maintained enabled-event state of a site graph. The
   engine owns one of these and adjusts it edge by edge as sends,
   receives and transport ticks happen, so a scheduler pick never scans
   the N-wide site array. Each ready receive event is held twice: in the
   ready sets, whose minima and successors the ordered policies query in
   O(log N), and as a live slot of a Fenwick tree over the fixed event
   order (slot 2i for source i, 2i+1 for warehouse i), which gives the
   enabled count in O(1) and the j-th enabled event in O(log N).
   [loads] carries the per-edge in-flight signal (physically undelivered
   messages on the edge) that the backpressure and fairness policies
   weigh; it is 0 everywhere for callers that do not maintain it, which
   degrades those policies gracefully. *)
module Ready = struct
  type t = {
    n : int;
    mutable update_ready : bool;
    mutable update_site : int;  (* owning site of the next update; -1 unknown *)
    mutable sources : Iset.t;  (* sites with a deliverable query *)
    mutable warehouses : Iset.t;  (* sites with a deliverable warehouse msg *)
    receives : Relational.Fenwick.t;  (* the same events, in event order *)
    loads : int array;
  }

  let create n =
    if n < 1 then raise (Schedule_error "Ready.create: need at least one site");
    {
      n;
      update_ready = false;
      update_site = -1;
      sources = Iset.empty;
      warehouses = Iset.empty;
      receives = Relational.Fenwick.create (2 * n);
      loads = Array.make n 0;
    }

  let sites t = t.n

  let set_update t ready = t.update_ready <- ready

  let set_update_site t i = t.update_site <- i

  let set_source t i ready =
    if Relational.Fenwick.mem t.receives (2 * i) <> ready then begin
      Relational.Fenwick.set t.receives (2 * i) ready;
      t.sources <- (if ready then Iset.add i t.sources else Iset.remove i t.sources)
    end

  let set_warehouse t i ready =
    if Relational.Fenwick.mem t.receives ((2 * i) + 1) <> ready then begin
      Relational.Fenwick.set t.receives ((2 * i) + 1) ready;
      t.warehouses <-
        (if ready then Iset.add i t.warehouses else Iset.remove i t.warehouses)
    end

  let set_load t i load = t.loads.(i) <- load

  let load t i = t.loads.(i)

  let enabled_count t =
    (if t.update_ready then 1 else 0) + Relational.Fenwick.count t.receives

  let idle t = enabled_count t = 0
end

type t = {
  policy : policy;
  mutable script : action list;  (* for Explicit *)
  mutable rotation : int;  (* for Round_robin *)
  rng : Random.State.t;  (* for Random *)
  mutable wf_pos : int;  (* for Weighted_fair: 0 = update slot, 1+i = site i *)
  mutable wf_served : int;  (* events served at wf_pos this visit *)
}

let create policy =
  let seed = match policy with Random s -> s | _ -> 0 in
  let script = match policy with Explicit l -> l | _ -> [] in
  (match policy with
  | Bounded_inflight b when b < 1 ->
    raise (Schedule_error "Bounded_inflight bound must be at least 1")
  | Weighted_fair q when q < 1 ->
    raise (Schedule_error "Weighted_fair quantum must be at least 1")
  | _ -> ());
  { policy; script; rotation = 0; rng = Random.State.make [| seed |];
    wf_pos = 0; wf_served = 0 }

let action_name = function
  | Apply_update -> "apply-update"
  | Source_receive -> "source-receive"
  | Warehouse_receive -> "warehouse-receive"

(* The fixed event order over the site graph, generalizing the single-site
   [Apply_update; Source_receive; Warehouse_receive]: the update stream
   first, then each site's two receive events in site order. Events are
   indexed Apply = 0, Site_source i = 2i+1, Site_warehouse i = 2i+2.
   Round_robin rotates over these indices, resolved against the ready
   sets with successor queries; Random draws uniformly from the enabled
   ones and finds the drawn one by rank in [Ready]'s Fenwick tree, whose
   receive slots keep the same order. Neither materializes the O(N)
   order per pick. *)

(* Best case: drain every message before touching the next update — each
   query is answered before the next update occurs, so no compensation is
   ever needed. Probes sites in order, source end before warehouse end:
   the minima of the two ready sets decide in O(log N). *)
let best_case (r : Ready.t) =
  match (Iset.min_elt_opt r.Ready.sources, Iset.min_elt_opt r.Ready.warehouses)
  with
  | Some s, Some w -> if s <= w then Some (Site_source s) else Some (Site_warehouse w)
  | Some s, None -> Some (Site_source s)
  | None, Some w -> Some (Site_warehouse w)
  | None, None -> if r.Ready.update_ready then Some Apply else None

(* Worst case: push every update into the system before any query is
   answered — every query compensates every preceding update; warehouse
   deliveries beat source answers so notifications pile up first. *)
let worst_case (r : Ready.t) =
  if r.Ready.update_ready then Some Apply
  else
    match Iset.min_elt_opt r.Ready.warehouses with
    | Some w -> Some (Site_warehouse w)
    | None -> (
      match Iset.min_elt_opt r.Ready.sources with
      | Some s -> Some (Site_source s)
      | None -> None)

(* Rotate over the fixed event order, skipping disabled events — indexing
   the cursor into the filtered enabled list would make the rotation
   depend on how many events happen to be enabled, so the cursor would
   not actually advance over the events. The first enabled event at an
   index >= the cursor (wrapping once) is found by successor queries on
   the ready sets: the smallest ready source with 2i+1 >= cur is the one
   with i >= cur/2, the smallest ready warehouse with 2i+2 >= cur has
   i >= (cur-1)/2 — no per-pick event array. *)
let round_robin t (r : Ready.t) =
  let size = (2 * r.Ready.n) + 1 in
  let cur = t.rotation mod size in
  let candidate_from cur =
    let apply = if r.Ready.update_ready && cur = 0 then Some 0 else None in
    let source =
      match Iset.find_first_opt (fun i -> i >= cur / 2) r.Ready.sources with
      | Some i -> Some ((2 * i) + 1)
      | None -> None
    in
    let warehouse =
      match
        Iset.find_first_opt (fun i -> i >= (cur - 1) / 2) r.Ready.warehouses
      with
      | Some i -> Some ((2 * i) + 2)
      | None -> None
    in
    List.fold_left
      (fun best c ->
        match (best, c) with
        | None, c -> c
        | best, None -> best
        | Some b, Some c -> Some (min b c))
      None
      [ apply; source; warehouse ]
  in
  let idx =
    match candidate_from cur with
    | Some idx -> Some idx
    | None -> candidate_from 0  (* wrap *)
  in
  match idx with
  | None -> None
  | Some idx ->
    t.rotation <- idx + 1;
    if idx = 0 then Some Apply
    else if (idx - 1) mod 2 = 0 then Some (Site_source ((idx - 1) / 2))
    else Some (Site_warehouse ((idx - 2) / 2))

(* One uniform draw over the enabled events: the bound is the enabled
   count, so the RNG sequence of a seeded run is exactly the historical
   materialize-and-index spelling's. The j-th enabled receive event is
   then one O(log N) select over the Fenwick tree, whose slot order
   (source i, then warehouse i, by site) is the fixed event order. *)
let random t (r : Ready.t) =
  let count = Ready.enabled_count r in
  let j = Random.State.int t.rng count in
  if r.Ready.update_ready && j = 0 then Some Apply
  else begin
    let j = if r.Ready.update_ready then j - 1 else j in
    let slot = Relational.Fenwick.select r.Ready.receives j in
    if slot land 1 = 0 then Some (Site_source (slot / 2))
    else Some (Site_warehouse (slot / 2))
  end

let scripted_event (r : Ready.t) a =
  let missing () =
    raise
      (Schedule_error
         (Printf.sprintf "scripted action %s is not enabled" (action_name a)))
  in
  match a with
  | Apply_update -> if r.Ready.update_ready then Apply else missing ()
  | Source_receive -> (
    match Iset.min_elt_opt r.Ready.sources with
    | Some i -> Site_source i
    | None -> missing ())
  | Warehouse_receive -> (
    match Iset.min_elt_opt r.Ready.warehouses with
    | Some i -> Site_warehouse i
    | None -> missing ())

(* Backpressure: updates flow only while the next update's edge carries
   fewer than [bound] undelivered messages; past the bound the policy
   drains instead — heaviest ready warehouse end first (delivering the
   backlog that blocks the update), then heaviest ready source end. When
   the loaded edge has nothing deliverable yet (frames delayed or
   awaiting retransmission) the pick is [None]: the engine advances the
   transport clock, which is exactly what waiting on the network means.
   An unknown update site (-1, a caller that never sets it) never
   blocks. *)
let heaviest (r : Ready.t) set =
  Iset.fold
    (fun i best ->
      match best with
      | Some j when r.Ready.loads.(j) >= r.Ready.loads.(i) -> best
      | _ -> Some i)
    set None

let bounded_inflight bound (r : Ready.t) =
  let blocked =
    r.Ready.update_ready && r.Ready.update_site >= 0
    && r.Ready.loads.(r.Ready.update_site) >= bound
  in
  if r.Ready.update_ready && not blocked then Some Apply
  else
    match heaviest r r.Ready.warehouses with
    | Some i -> Some (Site_warehouse i)
    | None -> (
      match heaviest r r.Ready.sources with
      | Some i -> Some (Site_source i)
      | None -> None)

(* Deficit rotation over the sites with the update stream as its own
   slot: each visit to a site serves up to quantum_i = min quantum
   (1 + load_i) consecutive receive events (warehouse end first), so a
   loaded edge drains proportionally to its backlog while any ready edge
   is served within 1 + (N-1) * quantum events of becoming ready — the
   starvation-freedom bound a hot source cannot break. *)
let weighted_fair t quantum (r : Ready.t) =
  let npos = r.Ready.n + 1 in
  let quantum_of i = min quantum (1 + r.Ready.loads.(i)) in
  let serve_site i =
    if Iset.mem i r.Ready.warehouses then Some (Site_warehouse i)
    else if Iset.mem i r.Ready.sources then Some (Site_source i)
    else None
  in
  let rec probe pos served visits =
    if visits > npos then None
    else if pos = 0 then
      if r.Ready.update_ready then begin
        t.wf_pos <- 1 mod npos;
        t.wf_served <- 0;
        Some Apply
      end
      else probe (1 mod npos) 0 (visits + 1)
    else begin
      let i = pos - 1 in
      if served < quantum_of i then
        match serve_site i with
        | Some ev ->
          t.wf_pos <- pos;
          t.wf_served <- served + 1;
          Some ev
        | None -> probe ((pos + 1) mod npos) 0 (visits + 1)
      else probe ((pos + 1) mod npos) 0 (visits + 1)
    end
  in
  probe (t.wf_pos mod npos) t.wf_served 0

let pick_ready t (r : Ready.t) =
  if Ready.idle r then None
  else
    match t.policy with
    | Best_case -> best_case r
    | Worst_case -> worst_case r
    | Round_robin -> round_robin t r
    | Random _ -> random t r
    | Bounded_inflight bound -> bounded_inflight bound r
    | Weighted_fair quantum -> weighted_fair t quantum r
    | Explicit _ -> (
      match t.script with
      | [] ->
        (* Script exhausted: finish the run deterministically. *)
        best_case r
      | a :: rest ->
        let ev = scripted_event r a in
        t.script <- rest;
        Some ev)

