(** Parsed warehouse scripts: table definitions, view definitions, an
    initial load, and the update stream that the simulation replays.

    Scripts are the input format of the [vmw] CLI and of several examples;
    see {!Parser.parse_script} for the concrete syntax. Statements before
    the [UPDATES;] marker populate the initial source state; statements
    after it are the decoupled update stream. *)

type t = {
  tables : Schema.t list;
  views : Viewdef.t list;
      (** simple SPJ views, or UNION/EXCEPT combinations of SPJ blocks *)
  initial : Update.t list;  (** initial load (inserts before [UPDATES;]) *)
  updates : Update.t list;  (** the update stream, in source order *)
  ddls : (int * Update.ddl) list;
      (** online schema changes ([ALTER TABLE …] in the UPDATES section);
          position [p] means "fires after the first [p] updates" — exactly
          the engine's [?evolution] convention *)
}

val table : t -> string -> Schema.t option
val view : t -> string -> Viewdef.t option

val initial_db : t -> Db.t
(** The source state after the initial load. *)
