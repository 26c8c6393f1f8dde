type entry = {
  key : string;
  description : string;
  creator : Algorithm.creator;
}

let entries =
  [
    {
      key = "basic";
      description =
        "Algorithm 5.1: conventional incremental maintenance (anomalous in \
         a warehouse)";
      creator = Basic.instance;
    };
    {
      key = "eca";
      description = "Eager Compensating Algorithm (Algorithm 5.2)";
      creator = Eca.instance;
    };
    {
      key = "eca-key";
      description = "ECA-Key: local deletes, compensation-free inserts \
                     (Section 5.4; needs key coverage)";
      creator = Eca_key.instance;
    };
    {
      key = "eca-local";
      description = "ECA-Local: ECA plus local handling of autonomously \
                     computable updates (Section 5.5)";
      creator = Eca_sm.local_instance;
    };
    {
      key = "eca-sm";
      description = "ECA-SM: self-maintenance via key/FK analysis and \
                     auxiliary views, ECA fallback for the rest";
      creator = Eca_sm.instance;
    };
    {
      key = "lca";
      description = "Lazy Compensating Algorithm: per-update in-order \
                     installation, complete (Section 5.3)";
      creator = Eca.lca;
    };
    {
      key = "rv";
      description = "Recompute the view every s updates (Algorithm D.1)";
      creator = Rv.instance;
    };
    {
      key = "sc";
      description = "Store copies of base relations at the warehouse \
                     (Section 1.2)";
      creator = Sc.instance;
    };
    {
      key = "fetch-join";
      description =
        "Naive cross-source fetch-and-join: demonstrably anomalous; shows \
         why multi-source views need more than per-source ECA (Section 7)";
      creator = Cross_source.instance;
    };
  ]

let names = List.map (fun e -> e.key) entries

let find key = List.find_opt (fun e -> String.equal e.key key) entries

let creator_exn key =
  match find key with
  | Some e -> e.creator
  | None ->
    invalid_arg
      (Printf.sprintf "unknown algorithm %S (known: %s)" key
         (String.concat ", " names))
