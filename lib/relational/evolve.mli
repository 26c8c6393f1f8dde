(** Pure application of online schema changes ({!Update.ddl}) to schemas,
    tuples, databases and view definitions.

    [Add_column] appends at the end of the column list (existing slot
    positions are untouched) and backfills existing tuples with the
    declared default. [Drop_column] is RESTRICT: key columns, foreign-key
    columns (either end) and columns a rewritten view still references
    raise {!Evolve_error}. [Key_change] re-validates current contents
    against the new declaration. *)

exception Evolve_error of string

val schema : Schema.t -> Update.ddl -> Schema.t
(** Identity when the schema is not the DDL's target relation. *)

val db : Db.t -> Update.ddl -> Db.t
(** Apply the change to the target relation's schema and contents,
    re-validating keys and foreign keys of the whole database. *)

val affects : Viewdef.t -> Update.ddl -> bool
(** Does the view mention the DDL's target relation? *)

val view : View.t -> Update.ddl -> View.t
val viewdef : Viewdef.t -> Update.ddl -> Viewdef.t
(** Rewrite the view over the evolved source schemas. Raises
    {!Evolve_error} when the view references a dropped column — the
    RESTRICT rule for views. *)
