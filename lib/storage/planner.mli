(** The source's query planner: reproduces the I/O accounting of
    Appendix D on live relation statistics.

    Two regimes, selected by the catalog:

    - {b Scenario 1} (indexed, ample memory): terms with substituted
      literal tuples are evaluated by chains of index probes seeded at the
      literals — one probe per feeding tuple, priced [⌈J/K⌉] per probe for
      clustered indexes and [J] for unclustered ones — with a full scan
      substituted whenever it is cheaper (the paper's [min(J, I)]). Terms
      with no literals read every base relation once.
    - {b Scenario 2} (no indexes, three memory blocks): block nested-loop
      join; the first [b−1] base relations are outer loops read in chunks,
      the last is the repeatedly scanned inner. Only inner scans are
      charged, exactly as the paper counts, unless
      [Catalog.count_outer_reads] is set.

    Evaluation of multi-term queries charges each term independently — the
    paper's no-caching, no-multi-term-optimization assumption. *)

val join_edges : Relational.Term.t -> (string * string * string * string) list
(** Equi-join conjuncts across distinct relations, as
    [(relA, attrA, relB, attrB)]. *)

val plan :
  Catalog.t ->
  Relational.Db.t ->
  edges:(string * string * string * string) list ->
  Relational.Term.t ->
  Plan.t
(** The plan of a term whose {!join_edges} are [edges]: they depend only
    on the term's condition, so the executor takes them from the term's
    compiled plan ({!Relational.Plan.t}'s [relation_joins]) and only the
    relation statistics are read per query. *)

val term : Catalog.t -> Relational.Db.t -> Relational.Term.t -> Plan.t
(** [plan cat db ~edges:(join_edges t) t]. *)

val query : Catalog.t -> Relational.Db.t -> Relational.Query.t -> Plan.t
