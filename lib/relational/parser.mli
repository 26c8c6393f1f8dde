(** Text syntax for warehouse scripts, view definitions, predicates and
    tuples.

    Script grammar (statements end with [;], comments run from [--] to end
    of line):

    {v
    TABLE r1 (W INT KEY, X INT);
    TABLE r2 (X INT KEY, Y INT);
    VIEW v AS SELECT r1.W, r2.Y FROM r1, r2 WHERE r1.X = r2.X AND r1.W > 0;
    VIEW u AS SELECT W, X FROM r1 UNION SELECT X, Y FROM r2
              EXCEPT SELECT W, X FROM r1 WHERE W > 9;
    INSERT INTO r1 VALUES (1, 2);    -- initial load
    UPDATES;
    INSERT INTO r2 VALUES (2, 3);    -- the decoupled update stream
    DELETE FROM r1 VALUES (1, 2);
    ALTER TABLE r2 ADD COLUMN n INT DEFAULT 7;   -- online schema changes
    ALTER TABLE r2 DROP COLUMN n;
    ALTER TABLE r1 KEY (W);
    ALTER TABLE r1 DROP KEY;
    v}

    Updates after the [UPDATES;] marker are numbered with source sequence
    numbers starting at 1. [ALTER TABLE] statements are only legal there;
    each records its position in the update stream (the number of updates
    preceding it), matching the engine's [?evolution] convention. *)

exception Parse_error of string

val parse_script : string -> Script.t
(** @raise Parse_error on syntax errors, references to undefined tables,
    two views with one name, or misplaced statements. Schema and view validation errors propagate as
    [Schema.Schema_error] / [View.View_error]. *)

val parse_view : tables:Schema.t list -> string -> Viewdef.t
(** Parses a standalone view definition — one SPJ block, optionally
    combined with further blocks by [UNION] (bag union) and [EXCEPT]
    (signed bag difference):
    [VIEW v AS SELECT ... UNION SELECT ... EXCEPT SELECT ...;]. *)

val parse_select : tables:Schema.t list -> string -> View.t
(** Parses an ad-hoc [SELECT ... FROM ... WHERE ...] (trailing [;]
    optional) into an anonymous view, for one-shot evaluation. *)

val parse_predicate : string -> Predicate.t
(** Parses a condition, e.g. ["r1.X = r2.X AND r1.W > 3"]. Attribute
    references are left unresolved; {!View.make} resolves them. *)

val parse_tuple : string -> Tuple.t
(** Parses ["(1, 2.5, 'abc', TRUE)"]. *)
