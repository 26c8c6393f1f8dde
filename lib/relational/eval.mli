(** Logical evaluation of terms, queries and views against a database
    instance.

    Terms are executed as joins over compiled {!Plan}s in delta-first
    order: bound slots (substituted literals, delta bags) first, then each
    base relation an equi-join reaches, probed once per partial row
    ({!Db.probe}, which hands each match with its count); the remaining
    equi-join keys and residual conjuncts are checked per match as
    position-resolved compiled filters, and replication counts multiply
    across slots — which realizes the paper's sign-product rule through
    ℤ-counted bags.
    Unreachable slots are enumerated as cross products. The result of
    evaluating a query is the signed sum of its terms' results. Plans are
    cached per term skeleton and bound-slot mask, so repeated evaluation
    of a view and of its delta terms compiles once.

    This evaluator defines {e what} an answer is; the physical layer in
    [lib/storage] independently accounts for {e how many I/Os} the source
    spends producing it. *)

exception Eval_error of string

(** Where a plan step reads its slot: a bag to enumerate, or a base
    relation of a database, which the step may probe through a column
    index instead. *)
type input =
  | Tuples of Bag.t
  | Relation of Db.t * string

val run_plan_into :
  Plan.t -> projs:int array array -> Bag.t array -> input:(int -> input) ->
  sign:int -> unit
(** Execute a compiled plan, fetching each slot's input by term slot
    index, and add each result row, projected through [projs.(j)], to
    accumulator [j] of the array, for every [j] — one join pass for
    several views that share the plan's skeleton and differ only in
    their projections. Projections are position arrays into the plan's
    joined row: [plan.proj] of a plan compiled, under the same
    bound-slot mask, for a term with the same skeleton
    ({!Term.skeleton_equal}). An accumulator is left physically
    unchanged when the plan produces no row. The [input] callback is
    consulted lazily — never for slots after the intermediate result
    has become empty — and [sign] multiplies every output count (the
    term's sign factor). A step the plan probes but whose input is
    [Tuples] checks its probe key per tuple instead. {!query} below and
    the staged delta programs ({!Delta_program}) all run through this
    one executor, so their results agree by construction. *)

val planned_term : Plan.t -> Db.t -> Term.t -> Bag.t
(** One signed term through a plan the caller prepared: [planned_term
    (Plan.of_term t) db t = query db [ t ]]. Literal (substituted-tuple)
    slots contribute their single signed tuple regardless of the
    database contents. A plan compiled for [t]'s skeleton and literal
    mask serves every term sharing them, whatever their literal tuples
    and sign: the source's executor looks a term's plan up once and
    reads both this evaluation and the planner's join edges off it. *)

val query : Db.t -> Query.t -> Bag.t
(** [Q[ss]]: the signed sum of the term results. *)

val view : Db.t -> View.t -> Bag.t
(** [V[ss]]: the full view contents at a source state — what the
    consistency checkers compare against, and what RV's recompute query
    returns. *)

val literal_query : Query.t -> Bag.t
(** The signed sum of the query's terms, in order, for terms with no
    base-relation slots (ECA's locally evaluated compensation terms);
    needs no database. Such a term is one row: each step of its compiled
    plan (source order, every slot bound) joins its literal tuple to the
    row so far when the step's join keys and filter pass, and the last
    step projects the row — no row buffers or singleton bags, and the
    same result, slot reads and [Schema_error]s as {!run_plan_into} over
    singleton bags: a slot past a failed key or filter is never read, so
    its tuple is never checked.
    @raise Eval_error at the first term that references a base
    relation. *)
