(** Compiled evaluation plans for SPJ terms.

    A plan fixes, once per term {e skeleton} (projection + condition +
    slot schemas) and {e bound-slot mask}: the join order, the column
    layout, the projection positions, each step's join keys and index
    probe, and residual filters compiled to closures with every attribute
    position resolved at build time. Plans are cached per domain
    ({!of_term}); literal tuple values and the term sign are excluded
    from the cache key, so the per-update delta terms T⟨U⟩ of a view for
    one updated relation all share one plan.

    The join order is delta-first: bound slots (substituted literals and
    delta bags) in source order, then repeatedly the first remaining base
    slot an equi-join conjunct reaches from the slots placed so far —
    joined by probing its column index on the first such key — and, when
    none is reachable, the first remaining slot as a cross product.

    {!Eval} executes plans; this module only builds them. *)

exception Plan_error of string

(** Column layout of a term: the concatenation of its slots' columns. Slot
    [i] occupies positions [offsets.(i) .. offsets.(i) + arity_i - 1]. A
    plan is compiled against the layout of its slots in join order and
    keeps only the positions it resolved. *)
type layout = {
  cols : (string * string) array;  (** (relation, column) per position *)
  offsets : int array;             (** first position of each slot *)
}

val layout_of_slots : Term.slot list -> layout

val resolve : layout -> Attr.t -> int
(** Position of an attribute reference in the layout.
    @raise Plan_error when the attribute is unbound or ambiguous. *)

val slot_of_position : layout -> int -> int

type filter = Value.t array -> bool

(** A conjunct [colA = colB] across two slots becomes a join key of the
    slot joined later. *)
type join_key = {
  probe_pos : int;  (** position among already-joined columns *)
  build_pos : int;  (** position within the new slot's own columns *)
}

(** One join step. *)
type slot_plan = {
  slot : int;  (** the term slot (source order) this step joins *)
  probe : join_key option;
      (** [Some k] for an unbound slot reached by an equi-join: look its
          matches up through the relation's index on [k.build_pos] *)
  keys : join_key array;  (** further equi-join keys, checked per match *)
  filter : filter option; (** residual conjuncts for this step, if any *)
}

type t = {
  pre_false : bool;  (** some constant-only conjunct is statically false *)
  slots : slot_plan array;  (** in join order *)
  proj : int array;  (** projection positions into the full layout *)
  projs : int array array;
      (** [[| proj |]]: the plan's own projection as the projection set
          of {!Eval.run_plan_into}, built once per plan *)
  relation_joins : (string * string * string * string) list;
      (** {!relation_joins} of the term's condition, kept with the plan
          so a source prices a term's probes without re-deriving them *)
}

val relation_joins : Predicate.t -> (string * string * string * string) list
(** The condition's equi-join conjuncts between qualified columns of two
    distinct relations, as [(relA, attrA, relB, attrB)], in conjunct
    order. *)

val of_term : ?bound:bool array -> Term.t -> t
(** Cached compilation keyed by the term skeleton and the bound-slot
    mask: equal keys give the physically same plan. The cache is
    domain-local ([Domain.DLS]): each domain owns a private table of at
    most 1024 plans, emptied whole when full, so concurrent callers on
    different domains never share mutable state. *)
