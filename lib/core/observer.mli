(** The span and gauge stream of an observed run, read off the effects
    of each engine step: {!Engine.step} hands them over only when the run
    was given a collector. This module owns the spans open over
    in-flight messages (matched by update seq or query gid), the
    per-view staleness gauges, the histograms and the summary that
    becomes [metrics.observe]. Within a step the order is fixed (see
    DESIGN.md §4f); staleness is sampled last, after source events,
    warehouse receives (a misrouted one too) and probes. *)

type event = Pick of Scheduler.event | Tick | Probe  (** {!Engine.event} *)

type effects = {
  edge : int;  (** the site the event ran at; [-1] for ticks and probes *)
  entry : Trace.entry option;  (** what the step recorded in the trace *)
  shipped : (int * int) list;  (** [(gid, site)] of each query sent *)
  owner : (string * string) option;
      (** a processed answer's [(view, algorithm)], read before the
          warehouse consumed or retired its route *)
}

val no_effects : effects

type t

val create :
  Observe.Collector.t -> sites:string array -> views:string array ->
  oracle:(int -> Relational.Bag.t) -> Warehouse.t -> t
(** [oracle vi] is view [vi]'s current (windowed) oracle state. *)

val step : t -> now:int -> event -> effects -> unit

val finish : t -> now:int -> Metrics.observe
(** Called at the drain probe: closes the parked [collect_install] span
    of each quiescent view, force-closes the spans still open (those a
    lost message left), and returns the run's summary. *)
