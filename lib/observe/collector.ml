type gauge = {
  g_name : string;
  g_key : string;
  g_t : int;
  g_value : int;
}

type event =
  | Span of Span.t
  | Gauge of gauge

type pending = {
  p_kind : Span.kind;
  p_site : string;
  p_view : string;
  p_algo : string;
  p_ids : int list;
  p_t_open : int;
}

type t = {
  ring : event Ring.t;
  open_spans : (int, pending) Hashtbl.t;
  mutable next_id : int;
  mutable closed : int;
  mutable gauge_count : int;
  mutable forced : int;  (* spans closed by [close_all], not their event *)
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  {
    ring = Ring.create capacity;
    open_spans = Hashtbl.create 64;
    next_id = 0;
    closed = 0;
    gauge_count = 0;
    forced = 0;
  }

let open_span t kind ?(view = "") ?(algo = "") ~site ~ids ~now () =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.open_spans id
    {
      p_kind = kind;
      p_site = site;
      p_view = view;
      p_algo = algo;
      p_ids = ids;
      p_t_open = now;
    };
  id

let close_span t id ~now =
  match Hashtbl.find_opt t.open_spans id with
  | None -> None
  | Some p ->
    Hashtbl.remove t.open_spans id;
    let span =
      {
        Span.id;
        kind = p.p_kind;
        site = p.p_site;
        view = p.p_view;
        algo = p.p_algo;
        ids = p.p_ids;
        t_open = p.p_t_open;
        t_close = now;
      }
    in
    t.closed <- t.closed + 1;
    Ring.push t.ring (Span span);
    Some span

let instant t kind ?view ?algo ~site ~ids ~now () =
  let id = open_span t kind ?view ?algo ~site ~ids ~now () in
  ignore (close_span t id ~now)

let gauge t ~name ~key ~now ~value =
  t.gauge_count <- t.gauge_count + 1;
  Ring.push t.ring (Gauge { g_name = name; g_key = key; g_t = now; g_value = value })

let open_count t = Hashtbl.length t.open_spans

(* Force-close every still-open span — messages lost forever on raw faulty
   edges never see their closing event. Ids are sorted so the emission
   order never depends on hash-table iteration order. *)
let close_all t ~now =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.open_spans [] in
  List.iter
    (fun id ->
      t.forced <- t.forced + 1;
      ignore (close_span t id ~now))
    (List.sort Int.compare ids)

let spans_recorded t = t.closed

let forced_closes t = t.forced

let gauges_recorded t = t.gauge_count

let dropped t = Ring.dropped t.ring

let events t = Ring.to_list t.ring

let escape = Span.escape

let gauge_to_json g =
  Printf.sprintf "{\"type\":\"gauge\",\"gauge\":\"%s\",\"key\":\"%s\",\"t\":%d,\"value\":%d}"
    (escape g.g_name) (escape g.g_key) g.g_t g.g_value

let meta_json t =
  Printf.sprintf
    "{\"type\":\"meta\",\"version\":1,\"clock\":\"engine-step\",\"spans\":%d,\
     \"gauges\":%d,\"dropped\":%d,\"forced_closes\":%d,\"open\":%d}"
    t.closed t.gauge_count (dropped t) t.forced (open_count t)

let write oc t =
  output_string oc (meta_json t);
  output_char oc '\n';
  List.iter
    (fun e ->
      output_string oc
        (match e with Span s -> Span.to_json s | Gauge g -> gauge_to_json g);
      output_char oc '\n')
    (events t)

let write_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc t)
