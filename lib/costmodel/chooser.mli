(** The adaptive rung chooser: Appendix-D closed forms fed by measured
    per-class counters (DESIGN.md §4j).

    [auto_rung] picks by structure alone — cheapest ladder rung whose
    applicability predicate holds. This module instead prices each
    eligible rung over a costing window of [k] updates using the paper's
    three cost factors — messages M (Section 6.1), transfer B
    (Appendix D.2) and resident storage — and picks the minimum,
    lexicographically M, then B, then storage. The inputs are measured
    quantities (how many deletes the warehouse could answer by key, how
    many updates self-maintenance would still compensate, how large the
    auxiliary views actually are), so the choice adapts to the workload
    rather than to the schema alone.

    The module is structure-agnostic: callers decide which registry keys
    are {e eligible} (e.g. ECAK only where every key is projected) and
    whether SC is allowed at all — the paper treats full base copies as a
    policy decision, and an M-minimizing chooser would otherwise always
    pick them. *)

(** Measured counters over the costing window. *)
type measures = {
  updates : int;  (** k: updates touching the view in the window *)
  local_deletes : int;
      (** deletes the warehouse answers without a round trip (key-delete
          or literal classes) — what ECAK/ECAL save over ECA *)
  sm_fallback : int;
      (** updates self-maintenance would still compensate ([Remote]
          classes of the analyzer) *)
  aux_bytes : int;  (** measured auxiliary-view storage of ECA-SM *)
  base_bytes : int;  (** full base copies — SC's storage *)
}

type candidate = {
  algo : string;  (** a registry key *)
  messages : int;  (** predicted M over the window *)
  transfer : float;  (** predicted B over the window, bytes *)
  storage : int;  (** resident bytes beyond the materialized view *)
}

val score : measures -> string list -> candidate list
(** One priced candidate per eligible key, in the eligibility list's
    order, at {!Params.default}. Keys this model cannot price
    (["basic"], ["fetch-join"], LCA's contention-dependent message
    count) are skipped. The ["rv"] rung is priced recomputing per
    update. *)

val choose : ?storage_budget:int -> measures -> string list -> candidate option
(** The minimum candidate by (M, B, storage, key). Candidates whose
    [storage] exceeds [storage_budget] are excluded first; if the budget
    excludes every candidate, the smallest-storage one is returned
    instead — the chooser never refuses a non-empty eligible list it can
    price. [None] only when no eligible key is priceable. *)

val pp_candidate : Format.formatter -> candidate -> unit
