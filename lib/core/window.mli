(** Trailing-k-partition (windowed) views.

    A windowed view restricts the visible materialization of an ordinary
    hosted view to the k highest partitions of one projected integer
    attribute (e.g. a day number): a tuple with partition value p is
    visible while [p > hi - k], where the watermark [hi] is the largest
    partition value observed in the underlying data. The watermark is
    monotone, so partitions age out deterministically as it advances and
    never come back.

    {!wrap} turns a hosted algorithm instance into its windowed version:
    installed states and the visible [mv] are filtered to the live
    window; compensating-query terms whose substituted tuple lies outside
    the window are pruned (their whole answer would age out on arrival),
    and a query all of whose terms prune is answered empty locally — the
    window-aware compensation saving; a quiescence probe publishes a
    catch-up install when the watermark moved past the last published
    state, making age-out a scheduler-clock-driven event. The same
    {!state} windows the engine's centralized oracle, so windowed runs
    are judged windowed-vs-windowed. *)

module R := Relational

exception Window_error of string

type spec = {
  rel : string;  (** source relation carrying the partition attribute *)
  col : string;  (** its column; must be projected by the view, as Tint *)
  k : int;  (** partitions kept: [p > hi - k] survives *)
}

type state

val make : spec -> R.Viewdef.t -> state
(** Validate the spec against the view (simple SPJ, attribute projected,
    integer-typed, [k >= 1]) and return a fresh window state.
    @raise Window_error otherwise. *)

val rebuild : state -> R.Viewdef.t -> unit
(** Re-resolve positions after a schema change rewrote the view. The
    watermark and counters survive the rebuild. *)

val watermark : state -> int option

val init_watermark : state -> R.Bag.t -> unit
(** Seed the watermark from an initial (unwindowed) view state. *)

val observe_update : state -> R.Update.t -> unit
(** Advance the watermark from a base insert into the window relation. *)

val filter : state -> R.Bag.t -> R.Bag.t
(** Restrict a view state to the live window. *)

val counters : state -> int * int * int
(** [(win_pruned_terms, win_local_answers, win_aged_partitions)] of
    {!Metrics.evolution}. The engine sums them over its windowed views;
    they survive {!rebuild}. *)

val wrap : state -> Algorithm.instance -> Algorithm.instance
(** The windowed version of a hosted instance (see module doc). Its
    interest, quiescence and {!Algorithm.instance.counters} are the inner
    instance's. *)
