(** U-relational databases: a W table plus named U-relations
    [⟨U_{R₁}, …, U_{Rₖ}, W⟩] (Section 3).

    The W table is shared and mutable — [repair-key] grows it during query
    evaluation.  Relations marked complete are certain by definition
    (the [c] function of Section 2). *)

open Pqdb_relational

type t

val create : unit -> t
val wtable : t -> Wtable.t

val add_complete : t -> string -> Relation.t -> unit
(** Register a complete base relation.
    @raise Invalid_argument on duplicate names. *)

val add_urelation : ?complete:bool -> t -> string -> Urelation.t -> unit
(** Register an uncertain relation represented by a U-relation.
    [complete] defaults to false. *)

val add_lazy : ?complete:bool -> t -> string -> Urelation.t Lazy.t -> unit
(** Register a relation whose decoding is deferred until {!find} first
    touches it.  Storage backends use this so cold start is O(pages
    touched): the thunk typically reads column segments out of a shared
    read-only mapping.  Forcing may raise whatever the decoder raises
    (e.g. the typed [Malformed_input] of a corrupt segment). *)

val find : t -> string -> Urelation.t
(** Forces the relation if it was registered with {!add_lazy}.
    @raise Not_found on unknown names. *)

val mem : t -> string -> bool
val names : t -> string list

val relation_sets : t -> string -> Assignment.t list array
(** The lineage of every possible tuple of a stored relation, in
    {!Urelation.clauses_by_tuple} order — the input of a batch or served
    [conf] over that relation.
    @raise Failure ["unknown relation \"NAME\" (database has: ...)"] on
    unknown names. *)

val is_complete : t -> string -> bool

val is_decoded : t -> string -> bool
(** Whether the relation has been decoded ([true] for all eagerly
    registered relations).  Diagnostic — the storage benches use it to
    show lazy loads touch nothing.
    @raise Not_found on unknown names. *)

val copy : t -> t
(** Deep enough a copy that evaluating queries (which mutates the W table)
    does not affect the original: the W table is a {!Wtable.copy} (no
    re-validation, built alias samplers kept), relations and undecoded
    thunks are shared.  Theorem 6.7 doubling takes one per attempt. *)

val pp : Format.formatter -> t -> unit
