(** Staleness: how far behind the source the materialized view runs.

    The paper's consistency hierarchy says {e which} source states the
    warehouse visits; staleness measures {e how late} it visits them.
    This is the quantity the timing (Section 2) and batching (Section 7)
    trade-offs buy their message savings with: fewer round trips, higher
    lag.

    Concretely: after every atomic event of the trace, the current
    materialized view is matched against the history of source states;
    the lag is the number of source events since the newest matching
    state, and the statistics are averaged over those time samples (so a
    warehouse that installs rarely accumulates lag {e between} installs,
    even if each install is fresh when it lands, and even SC shows the
    inherent one-event propagation delay). *)

type t = {
  samples : int;  (** events at which the lag was sampled *)
  max_lag : int;
  mean_lag : float;
  final_lag : int;
      (** lag at the end of the run (0 = perfectly fresh at quiescence) *)
  unmatched : int;
      (** samples where the view matched no source state at all — an
          anomaly witness; such samples count with maximal lag *)
}

val of_trace : Trace.t -> string -> t
(** Staleness of the named view over one simulation trace. *)

val pp : Format.formatter -> t -> unit
