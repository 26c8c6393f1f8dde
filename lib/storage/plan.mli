(** Physical plans for evaluating one query term at the source, with their
    I/O charge. Plans exist to make the cost accounting inspectable — the
    tests assert the paper's Appendix-D costs step by step. *)

type step =
  | Local  (** all slots are literal tuples: no base data touched *)
  | Scan of {
      rel : string;
      blocks : int;  (** [I = ⌈C/K⌉] *)
    }
  | Index_probe of {
      index : Index.t;
      probes : int;  (** how many probe operations reach this index *)
      matches_per_probe : float;  (** measured join factor J *)
      io : int;
    }
  | Nested_loop of {
      outers : (string * int) list;  (** (relation, chunk loads) *)
      inner : string;
      inner_blocks : int;
      io : int;  (** paper-style: inner scans only, unless configured *)
    }

type t = private {
  steps : step list;
  io : int;
}

val local : t
val of_steps : step list -> t
val concat : t list -> t
val step_io : step -> int
val pp : Format.formatter -> t -> unit
