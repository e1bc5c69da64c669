(** A conjunction of integrity constraints ({!Pqdb_ast.Uconstraint}),
    validated on construction, attached to a database or a serve session.

    The set is semantically a conjunction: order-insensitive, duplicates
    collapse.  {!equal} and {!fingerprint} read the constraints' values,
    so constraints that print alike but differ ([A = 1] and [A = '1'], or
    two literal relations of one size) never compare equal or share a
    salt. *)

type t

val empty : t
val is_empty : t -> bool

val add : t -> Pqdb_ast.Uconstraint.t -> t
(** Validates ({!Pqdb_ast.Uconstraint.validate}) and appends; adding a
    constraint already present returns the set unchanged.
    @raise Invalid_argument on a constraint outside the positive
    confidence-free fragment. *)

val of_list : Pqdb_ast.Uconstraint.t list -> t
val items : t -> Pqdb_ast.Uconstraint.t list
(** In insertion order. *)

val cardinal : t -> int

val fingerprint : t -> string
(** The salt of this set's compiled-lineage cache keys
    ({!Pqdb_montecarlo.Memo}): a serialization of the set's sorted,
    deduplicated constraint values, so it is order- and
    duplicate-insensitive, sets with different members never share one,
    and it is [""] iff the set is empty.  Binary, not for display. *)

val equal : t -> t -> bool
(** Same members, in any order and multiplicity. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
