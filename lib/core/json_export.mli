(** JSON serialization of run results (metrics, per-view verdicts, event
    traces) for external analysis tools — hand-rolled, no dependencies.
    The [vmw run --json] flag emits {!result}. *)

module R := Relational

val value : R.Value.t -> string
val tuple : R.Tuple.t -> string
val bag : R.Bag.t -> string
val update : R.Update.t -> string
val histogram : Metrics.histogram -> string
val staleness_gauge : Metrics.staleness_gauge -> string

val shared : Metrics.shared -> string
(** Shared-delta counters. [metrics] appends them as a ["shared"] field
    only when the run enabled MQO sharing. *)

val scale : Metrics.scale -> string
(** Scale-out counters. [metrics] appends them as a ["scale"] field only
    when the run enabled tracking them. *)

val observe : Metrics.observe -> string
(** The derived observability summary. [metrics] appends it as an
    ["observe"] field only when the run collected spans, so unobserved
    exports (the golden traces among them) are byte-identical to
    pre-observability output. *)

val metrics : Metrics.t -> string
val report : Consistency.report -> string

val result : Engine.result -> string
(** The whole run as one JSON object:
    [{"metrics": …, "views": {…}, "trace": […]}]. *)
