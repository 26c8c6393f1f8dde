(** Typed spans over the engine's atomic events.

    The span taxonomy follows the warehouse protocol of the paper
    (Section 3): a source applies updates ([Source_apply]) and notifies
    the warehouse ([Update_note], open while the notification is in
    flight); the warehouse ships compensated queries ([Query_send], open
    for the whole query/answer round trip — the query's residency in the
    algorithm's unanswered-query set UQS); every notification arriving
    while queries are outstanding offsets them ([Compensation]); answers
    travel back ([Answer_arrival]) and park in COLLECT until the view
    installs ([Collect_install]); [Quiescence] marks the drained-graph
    probes. Clocks are logical: the engine's deterministic scheduler step
    counter, so identical runs produce identical traces at any [PAR]
    worker count. *)

type kind =
  | Source_apply  (** a batch of updates executed at a source (instant) *)
  | Update_note  (** notification in flight, source → warehouse *)
  | Query_send  (** query round trip / UQS residency, open at ship *)
  | Compensation
      (** an in-flight query offset against a concurrent update (instant;
          ids = [query gid; update seq]) *)
  | Answer_arrival  (** answer in flight, source → warehouse *)
  | Collect_install
      (** answers parked in COLLECT; closes when the view installs *)
  | Quiescence  (** a drained-graph probe (instant) *)

type t = {
  id : int;  (** dense, in open order *)
  kind : kind;
  site : string;  (** source edge name, or ["warehouse"] *)
  view : string;  (** owning view, [""] when not view-scoped *)
  algo : string;  (** maintaining algorithm, [""] when not view-scoped *)
  ids : int list;  (** message ids: update seqs or query gids *)
  t_open : int;  (** logical clock (engine step) at open *)
  t_close : int;  (** >= [t_open]; equal for instant spans *)
}

val kind_name : kind -> string
val duration : t -> int

val escape : string -> string
(** JSON string-content escaping (quotes, backslashes, control bytes). *)

val to_json : t -> string
(** One JSONL object: [{"type":"span","id":…,"kind":…,…}]. *)
