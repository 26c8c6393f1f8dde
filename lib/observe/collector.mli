(** The ring-buffered span/gauge collector behind the engine's
    observability layer.

    The engine's observer ([Core.Observer]) opens and closes {!Span}
    records and samples gauges as each engine step's effects reach it;
    completed events land in a fixed-capacity {!Ring} (oldest dropped
    and counted once full, so memory stays bounded). [write_file] exports the retained events as JSONL —
    one meta header line, then one object per event in completion order —
    the format behind [vmw run --trace-out]. *)

type gauge = {
  g_name : string;  (** gauge name, e.g. ["staleness"] *)
  g_key : string;  (** sub-key, e.g. the view name; [""] when global *)
  g_t : int;  (** logical clock of the sample *)
  g_value : int;
}

type event =
  | Span of Span.t
  | Gauge of gauge

type t

val create : ?capacity:int -> unit -> t

val open_span :
  t ->
  Span.kind ->
  ?view:string ->
  ?algo:string ->
  site:string ->
  ids:int list ->
  now:int ->
  unit ->
  int
(** Returns the span id to pass to {!close_span}. *)

val close_span : t -> int -> now:int -> Span.t option
(** Completes the span and records it; [None] when the id is unknown or
    already closed (e.g. the closing event arrived twice via a duplicated
    frame). *)

val instant :
  t ->
  Span.kind ->
  ?view:string ->
  ?algo:string ->
  site:string ->
  ids:int list ->
  now:int ->
  unit ->
  unit
(** A zero-duration span. *)

val gauge : t -> name:string -> key:string -> now:int -> value:int -> unit

val close_all : t -> now:int -> unit
(** Force-close every still-open span (counted by {!forced_closes}) — the
    observer calls this at end of run so spans whose closing message was
    lost forever on a raw faulty edge still terminate. *)

val spans_recorded : t -> int
val forced_closes : t -> int
val gauges_recorded : t -> int

val dropped : t -> int
(** Events overwritten by ring overflow. *)

val events : t -> event list
(** Retained events, oldest first (completion order). *)

val write_file : string -> t -> unit
