module R = Relational

(* Trailing-k-partition views — the warehouse idiom of a daily MV kept
   for the last k days. A windowed view is an ordinary hosted view whose
   visible materialization is restricted to the k highest partitions of
   one projected integer attribute (the partition attribute, e.g. a day
   number). The partition watermark [hi] is the largest partition value
   observed in the underlying data; a view tuple with partition p is
   visible while p > hi - k, and ages out deterministically as the
   watermark advances.

   The window lives in a wrapper around the hosted algorithm instance,
   not inside the algorithm: the inner instance maintains the unwindowed
   view exactly as the paper specifies, and the wrapper (1) advances the
   watermark from arriving update notifications, (2) filters every
   installed state and the visible [mv] to the live window, (3) prunes
   compensating-query terms whose substituted tuple lies wholly outside
   the window — the answer could only produce aged-out tuples, so the
   term (and, when all terms prune, the whole round trip) is saved —
   and (4) emits a catch-up install at quiescence probes when the
   watermark moved past the last installed state, which is what makes
   age-out a deterministic, scheduler-clock-driven event rather than a
   read-time effect. The same [state] machinery windows the engine's
   centralized oracle, so windowed runs are judged windowed-vs-windowed. *)

exception Window_error of string

let error fmt = Format.kasprintf (fun s -> raise (Window_error s)) fmt

type spec = {
  rel : string;  (* source relation carrying the partition attribute *)
  col : string;  (* its column; must be projected by the view, as Tint *)
  k : int;  (* partitions kept: p > hi - k survives *)
}

type state = {
  spec : spec;
  mutable pos : int;  (* output position of the partition attribute *)
  mutable base_idx : int;  (* its column index in [rel]'s current schema *)
  mutable hi : int option;  (* watermark; None until a partition is seen *)
  mutable pruned_terms : int;
  mutable local_answers : int;
  mutable aged_partitions : int;
  mutable last_install : R.Bag.t option;  (* last emitted windowed state *)
}

let resolve spec (vd : R.Viewdef.t) =
  if spec.k < 1 then error "window over %s needs k >= 1" vd.R.Viewdef.name;
  match R.Viewdef.as_simple vd with
  | None ->
    error "windowed view %s must be a simple SPJ view" vd.R.Viewdef.name
  | Some v ->
    (match R.View.source_schema v spec.rel with
    | None ->
      error "windowed view %s does not read relation %s" vd.R.Viewdef.name
        spec.rel
    | Some s -> (
      match R.Schema.column_index s spec.col with
      | None ->
        error "window attribute %s.%s is not a column" spec.rel spec.col
      | Some bi -> (
        (match
           List.find_opt
             (fun c -> String.equal c.R.Schema.col_name spec.col)
             s.R.Schema.columns
         with
        | Some { R.Schema.col_type = R.Value.Tint; _ } -> ()
        | _ ->
          error "window attribute %s.%s must be an integer column" spec.rel
            spec.col);
        match
          R.View.proj_position v (R.Attr.qualified spec.rel spec.col)
        with
        | None ->
          error "windowed view %s must project its partition attribute %s.%s"
            vd.R.Viewdef.name spec.rel spec.col
        | Some pos -> (pos, bi))))

let make spec vd =
  let pos, base_idx = resolve spec vd in
  {
    spec;
    pos;
    base_idx;
    hi = None;
    pruned_terms = 0;
    local_answers = 0;
    aged_partitions = 0;
    last_install = None;
  }

(* Re-resolve positions after the view was rewritten by a schema change;
   the watermark and counters survive — partitions already aged out stay
   aged out across the rebuild. *)
let rebuild st vd =
  let pos, base_idx = resolve st.spec vd in
  st.pos <- pos;
  st.base_idx <- base_idx;
  st.last_install <- None

let watermark st = st.hi

let advance st p =
  match st.hi with
  | None -> st.hi <- Some p
  | Some h ->
    if p > h then begin
      st.hi <- Some p;
      st.aged_partitions <- st.aged_partitions + (p - h)
    end

(* Partition of a view output tuple; non-integers and out-of-range
   positions are treated as always-visible rather than crashing — the
   wrapper must stay total under reordered pre-change messages. *)
let partition_of st t =
  if st.pos >= R.Tuple.arity t then None
  else match R.Tuple.get t st.pos with R.Value.Int p -> Some p | _ -> None

let in_window st p =
  match st.hi with None -> true | Some h -> p > h - st.spec.k

let visible st t =
  match partition_of st t with None -> true | Some p -> in_window st p

let filter st bag =
  R.Bag.fold
    (fun t n acc -> if visible st t then R.Bag.add ~count:n t acc else acc)
    bag R.Bag.empty

(* Watermark advance from one base insert into the window relation. *)
let observe_update st (u : R.Update.t) =
  if
    u.R.Update.kind = R.Update.Insert
    && String.equal u.R.Update.rel st.spec.rel
    && st.base_idx < R.Tuple.arity u.R.Update.tuple
  then
    match R.Tuple.get u.R.Update.tuple st.base_idx with
    | R.Value.Int p -> advance st p
    | _ -> ()

let init_watermark st bag =
  R.Bag.iter
    (fun t _ -> match partition_of st t with Some p -> advance st p | None -> ())
    bag;
  (* the initial state is the first emitted windowed state *)
  st.last_install <- Some (filter st bag)

(* A query term is prunable when some substituted tuple of the window
   relation lies outside the window: every output row of such a term
   carries that tuple's partition value, so its whole answer would age
   out on arrival. The watermark is monotone, so a pruned term can never
   become relevant again — dropping it is sound, not just cheap. *)
let term_prunable st (term : R.Term.t) =
  List.exists
    (fun slot ->
      match slot with
      | R.Term.Lit (s, _, t) when String.equal s.R.Schema.name st.spec.rel -> (
        match R.Schema.column_index s st.spec.col with
        | None -> false
        | Some i ->
          i < R.Tuple.arity t
          && (match R.Tuple.get t i with
             | R.Value.Int p -> not (in_window st p)
             | _ -> false))
      | R.Term.Lit _ | R.Term.Base _ -> false)
    term.R.Term.slots

let prune st q =
  let kept, pruned =
    List.partition (fun term -> not (term_prunable st term)) (R.Query.terms q)
  in
  st.pruned_terms <- st.pruned_terms + List.length pruned;
  R.Query.of_terms kept

let counters st = (st.pruned_terms, st.local_answers, st.aged_partitions)

let wrap st (inner : Algorithm.instance) =
  init_watermark st (inner.Algorithm.mv ());
  (* Window the queries and installs of one inner outcome. A query whose
     terms all prune needs no source round trip at all: the empty answer
     is delivered to the inner instance immediately, inside the same
     atomic warehouse event, and the reaction is windowed in turn. *)
  let rec process (o : Algorithm.outcome) =
    let followup = ref Algorithm.nothing in
    let send =
      List.filter_map
        (fun (id, q) ->
          let q' = prune st q in
          if R.Query.is_empty q' && not (R.Query.is_empty q) then begin
            st.local_answers <- st.local_answers + 1;
            followup :=
              Algorithm.combine !followup
                (process (inner.Algorithm.on_answer ~id R.Bag.empty));
            None
          end
          else Some (id, q'))
        o.Algorithm.send
    in
    let installs = List.map (filter st) o.Algorithm.installs in
    (match List.rev installs with
    | last :: _ -> st.last_install <- Some last
    | [] -> ());
    Algorithm.combine { Algorithm.send; installs } !followup
  in
  {
    inner with
    Algorithm.name = inner.Algorithm.name ^ "+win";
    on_update =
      (fun u ->
        observe_update st u;
        process (inner.Algorithm.on_update u));
    on_batch =
      (fun us ->
        List.iter (observe_update st) us;
        process (inner.Algorithm.on_batch us));
    on_answer = (fun ~id a -> process (inner.Algorithm.on_answer ~id a));
    on_quiesce =
      (fun () ->
        let o = process (inner.Algorithm.on_quiesce ()) in
        (* Deterministic age-out: when the watermark moved past the last
           installed state and the inner instance has settled, the
           quiescence probe publishes the aged state — so partitions
           leave the materialization at a scheduler-visible event. *)
        if
          o.Algorithm.installs = []
          && inner.Algorithm.quiescent ()
        then begin
          let now = filter st (inner.Algorithm.mv ()) in
          match st.last_install with
          | Some prev when R.Bag.equal prev now -> o
          | _ ->
            st.last_install <- Some now;
            Algorithm.combine o (Algorithm.install now)
        end
        else o);
    mv = (fun () -> filter st (inner.Algorithm.mv ()));
  }
