(** Static self-maintainability analysis (ROADMAP item 2; the
    self-maintenance line of work cited in PAPERS.md).

    Given a view definition plus the key/foreign-key metadata declared on
    its base relations, classify each update class — insert/delete per
    base relation — by how the warehouse can maintain the view without a
    source round trip:

    - {b Self}: answerable from the view, its deltas and the update tuple
      alone. Three ways in: every part ranges over the updated relation
      only (literal evaluation); a delete against a simple view projecting
      the relation's declared key (remove-by-key, the ECAK trick); or an
      insert whose join partners are derivable from the inserted tuple via
      a declared foreign key whose target columns cover the partner's key
      and every referenced column — referential integrity then guarantees
      exactly one partner row, with all referenced values equal to the
      inserted tuple's.
    - {b Aux}: answerable warehouse-locally after materializing small
      {e auxiliary views} — per join partner, the projection onto its
      referenced columns of its pushed-down selection. Admissible only
      when that is a {e proper} reduction of the partner; otherwise the
      auxiliary view is a full base copy, which is SC by another name.
    - {b Remote}: neither, so a compensating source query remains
      necessary (the ECA fallback).

    Foreign-key derivation applies to inserts only: [Db] enforces
    referential integrity on the insert side but lets deletes dangle, so a
    deleted tuple's partners cannot be assumed to still exist. Insert
    derivation is sound when the insert's integrity held at source commit
    time and updates of the two relations reach the warehouse in commit
    order — [Db.apply] enforces the former whenever the relations share a
    source database, and the reliable-delivery layer provides per-edge
    FIFO for the latter. *)

type self_reason =
  | Literal  (** every part mentioning the relation ranges over it alone *)
  | Key_delete  (** simple view projecting the relation's declared key *)
  | Fk_join  (** insert; partners derivable via declared foreign keys *)

type verdict =
  | Self of self_reason
  | Aux of string list
      (** locally answerable reading these auxiliary views *)
  | Remote of string  (** why a source query remains necessary *)

(** One auxiliary view: [π_keep (σ_cond (rel))], materialized at the
    warehouse under the base relation's name with a reduced, key-less
    schema. [aux_maintained] is false for relations that appear only as
    foreign-key-derived partners — present in the auxiliary database for
    slot layout, never read from it. *)
type aux = {
  aux_rel : string;
  aux_base : Schema.t;  (** the full base schema *)
  aux_schema : Schema.t;  (** reduced: kept columns only, no key/FKs *)
  aux_keep : int list;  (** kept column positions, ascending *)
  aux_cond : Predicate.t;  (** pushed-down selection ([True] when none) *)
  aux_maintained : bool;
}

type partner_source =
  | P_aux  (** read the partner from the auxiliary database *)
  | P_fk of int option list
      (** construct a singleton: per kept column, [Some i] copies position
          [i] of the update tuple (via the foreign-key pairing); [None]
          columns are unconstrained and never read by this part's plan *)

type part_plan = {
  pp_viewdef : Viewdef.t;
      (** single-part local rewrite: full schema for the updated relation,
          reduced auxiliary schemas for its partners *)
  pp_program : Delta_program.t;
      (** [pp_viewdef]'s program for this class, staged once by
          {!analyze} and run by {!delta} on every update of the class; an
          analysis holds no mutable state, so domains may share it *)
  pp_partners : (string * partner_source) list;
}

type class_plan =
  | Use_key_delete
  | Use_local of part_plan list
  | Use_fallback of string

type class_report = {
  cls_rel : string;
  cls_kind : Update.kind;
  cls_verdict : verdict;
  cls_plan : class_plan;
}

type t = {
  view : Viewdef.t;
  classes : class_report list;
      (** relation-major ({!Viewdef.relation_names} order), insert before
          delete *)
  auxes : aux list;  (** one per join partner, by relation name *)
  fully_local : bool;  (** no class fell back to [Remote] *)
}

val analyze : Viewdef.t -> t

val verdicts : Viewdef.t -> verdict list
(** The verdicts of [analyze]'s classes, in its class order, without
    staging a program: what a rung chooser needs to read. *)

val find_class : t -> rel:string -> kind:Update.kind -> class_report option
(** [None] iff the view does not mention [rel]. *)

val maintained : t -> aux list
(** The auxiliary views proper: partners some class actually reads. *)

val seed_aux_db : t -> Db.t -> Db.t
(** The auxiliary database over a full source state: maintained auxiliary
    views hold their projected contents, FK-only partners are present but
    empty. [db] must contain every partner relation. *)

val apply_aux : t -> Db.t -> Update.t -> Db.t
(** Advance the auxiliary database by one source update (no-op for
    relations without a maintained auxiliary view): one tuple's count
    changes ({!Db.add_tuple}), so the cost is independent of the
    auxiliary view's size and its column indexes are kept. *)

val delta : t -> aux_db:Db.t -> Update.t -> Bag.t option
(** The view delta of one update computed warehouse-locally through the
    staged per-part programs: [Some] for [Use_local] classes (and [Some
    empty] for unmentioned relations), [None] when the class needs
    [Use_key_delete] (the caller owns the materialized view) or the
    remote fallback. *)

val storage : t -> Db.t -> int * int
(** [(tuples, bytes)] across the maintained auxiliary views of an
    auxiliary database — the state ECA-SM stores beyond the view itself,
    the quantity the adaptive chooser weighs against SC's full copies. *)

val pp_report : Format.formatter -> t -> unit
(** The per-class verdict table that [vmw analyze] prints. *)
