(** CSV loading and dumping for base relations, typed by the relation's
    schema — how the CLI feeds realistic data into the simulated source.

    Minimal but correct dialect: comma-separated records, double-quoted
    fields for values containing commas, quotes or newlines, [""] as the
    escaped quote. Duplicate rows load as duplicate tuples (bags!). *)

exception Csv_error of string

val parse : ?header:bool -> Schema.t -> string -> Bag.t
(** [parse schema text] parses one tuple per non-empty line, typed by the
    schema's columns; [~header:true] skips the first line.
    @raise Csv_error on arity or type mismatches. *)

val to_string : ?header:bool -> Schema.t -> Bag.t -> string
(** Serializes a non-negative bag, one line per tuple copy.
    @raise Csv_error on negative counts. *)
