(** Channel fault profiles.

    The paper assumes reliable in-order delivery between source and
    warehouse. A fault profile makes a {!Channel} violate that assumption
    in controlled, seeded ways, so the necessity of the assumption — and
    the {!Reliable} sublayer that restores it — can be demonstrated and
    measured:

    - [drop]: probability that a transmission is silently lost;
    - [duplicate]: probability that a transmission is delivered twice
      (the copy gets its own independent delay);
    - [delay]: each transmission waits a uniform 0..[delay] extra clock
      ticks before becoming deliverable (ticks advance via
      {!Channel.tick}, driven by the simulation scheduler);
    - [reorder]: each receive picks uniformly among the currently
      deliverable messages instead of the oldest one (subsumes the old
      ad-hoc [Unordered] discipline).

    All randomness comes from the channel's seeded RNG, so faulty runs
    are exactly reproducible. *)

type profile = {
  drop : float;  (** in [0, 1) — a run could otherwise never terminate *)
  duplicate : float;  (** in [0, 1] *)
  delay : int;  (** max extra ticks per transmission, >= 0 *)
  reorder : bool;
}

val none : profile
(** The paper's transport: lossless, exactly-once, FIFO. *)

val make :
  ?drop:float -> ?duplicate:float -> ?delay:int -> ?reorder:bool -> unit ->
  profile
(** @raise Invalid_argument on out-of-range parameters. *)

val is_none : profile -> bool
val pp : Format.formatter -> profile -> unit
