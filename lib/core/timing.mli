(** Maintenance timing (Section 2): the paper assumes {e immediate}
    update but observes that "with little or no modification our
    algorithms can be applied to deferred and periodic update as well".
    This wrapper is that modification.

    One buffering wrapper serves both timed modes. Buffered
    notifications are flushed into the wrapped algorithm's [on_batch] —
    as one atomic warehouse step — once [n] notifications are buffered
    ([Periodic n]) and at every quiescence probe; [Deferred] is the case
    with no threshold (the refresh-on-demand pattern of [RK86]). The
    wrapper observes every update ([interest = None]) and passes the
    inner instance's counters through. Because the flushed batch is
    processed by the underlying algorithm with its usual compensation
    machinery, a strongly consistent algorithm stays strongly consistent:
    the warehouse simply visits a {e subsequence} of the source states. *)

exception Timing_error of string

type mode =
  | Immediate  (** the paper's default: process every notification *)
  | Periodic of int  (** flush the buffer every [n] source updates *)
  | Deferred  (** flush only when the view is demanded (at quiescence) *)

val wrap : mode -> Algorithm.instance -> Algorithm.instance
(** @raise Timing_error on a non-positive period. *)

val creator : mode -> Algorithm.creator -> Algorithm.creator
(** [creator mode c] wraps every instance [c] builds. *)
