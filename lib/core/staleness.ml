module R = Relational

type t = {
  samples : int;  (* events at which the lag was sampled *)
  max_lag : int;
  mean_lag : float;
  final_lag : int;  (* lag at the end of the run *)
  unmatched : int;  (* samples where the view matched no source state *)
}

let zero = { samples = 0; max_lag = 0; mean_lag = 0.0; final_lag = 0; unmatched = 0 }

(* Walk the trace in event order, tracking the current materialized view
   (updated by installations) and the history of source states. After
   every source event, the view's lag is the number of source events since
   the newest source state equal to the current view; the statistics are
   the time average over those samples. A view state that matches no
   source state at all (an anomaly) contributes to [unmatched] and counts
   with the maximal possible lag.

   The history is a fingerprint index, newest first per fingerprint and
   confirmed by [Bag.equal], and the newest match is kept between events:
   a new source state can only become the newest match itself, so only
   an install looks the history up again. *)
let of_trace trace name =
  let initial =
    match List.assoc_opt name (Trace.initial_views trace) with
    | Some v -> v
    | None -> R.Bag.empty
  in
  let history = Hashtbl.create 64 in
  (* fingerprint -> (index, state), newest first *)
  Hashtbl.replace history (R.Bag.fingerprint initial) [ (0, initial) ];
  let current = ref 0 in
  let mv = ref initial in
  let matched = ref (Some 0) in  (* index of the newest state equal to mv *)
  let lags = ref [] in
  let unmatched = ref 0 in
  let lag_now () =
    match !matched with
    | Some idx -> !current - idx
    | None ->
      incr unmatched;
      !current
  in
  let on_source v =
    let fp = R.Bag.fingerprint v in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt history fp) in
    Hashtbl.replace history fp ((!current, v) :: bucket);
    if R.Bag.equal v !mv then matched := Some !current
  in
  let on_install v =
    mv := v;
    matched :=
      Option.map fst
        (List.find_opt
           (fun (_, state) -> R.Bag.equal state v)
           (Option.value ~default:[]
              (Hashtbl.find_opt history (R.Bag.fingerprint v))))
  in
  List.iter
    (fun entry ->
      (match entry with
       | Trace.Source_update { source_views; _ }
       | Trace.Source_ddl { source_views; _ } -> (
         incr current;
         match List.assoc_opt name source_views with
         | Some v -> on_source v
         | None -> ())
       | e -> (
         match List.assoc_opt name (Trace.installs_of e) with
         | Some states -> (
           match List.rev states with
           | last :: _ -> on_install last
           | [] -> ())
         | None -> ()));
      (* sample after every atomic event, giving a time-weighted lag *)
      lags := lag_now () :: !lags)
    (Trace.entries trace);
  let final_lag = lag_now () in
  match !lags with
  | [] -> { zero with final_lag; unmatched = !unmatched }
  | lags ->
    let n = List.length lags in
    {
      samples = n;
      max_lag = List.fold_left max 0 lags;
      mean_lag = float_of_int (List.fold_left ( + ) 0 lags) /. float_of_int n;
      final_lag;
      unmatched = !unmatched;
    }

let pp ppf t =
  Format.fprintf ppf
    "lag: mean %.2f, max %d, final %d (%d samples, %d unmatched)" t.mean_lag
    t.max_lag t.final_lag t.samples t.unmatched
