(** Partial functions [f : Var → Dom] — the condition columns [D] of a
    U-relation (Section 3).

    A partial assignment represents the set of possible worlds (total
    assignments) consistent with it; its weight is
    [p_f = Π_{X ∈ dom f} Pr(X = f(X))] (Equation 2).  Two partial functions
    are {e consistent} when they agree on every variable on which both are
    defined. *)

open Pqdb_numeric

type t

val empty : t
(** Defined nowhere — represents all worlds (a complete tuple's condition). *)

val of_list : (Wtable.var * int) list -> t
(** @raise Invalid_argument when the same variable is bound twice (even to
    the same value — callers should not build redundant conditions). *)

val singleton : Wtable.var -> int -> t
val is_empty : t -> bool
val cardinal : t -> int
val bindings : t -> (Wtable.var * int) list
(** Sorted by variable. *)

val vars : t -> Wtable.var list
val value : t -> Wtable.var -> int option

val consistent : t -> t -> bool
val union : t -> t -> t option
(** Merge; [None] when inconsistent.  This is the condition calculus of the
    product/join translation.  When one operand is empty the other is
    returned as is, with nothing allocated but the [Some]. *)

val restrict : t -> Wtable.var list -> t
(** Drop bindings for variables not in the list. *)

val remove : t -> Wtable.var -> t

val extended_by : (Wtable.var -> int) -> t -> bool
(** [extended_by f* f]: does the total assignment [f*] belong to [ω(f)]? *)

val nth : t -> int -> Wtable.var * int
(** [nth a i] is the binding of rank [i] in ascending variable order, for
    [0 <= i < cardinal a]; it allocates nothing.  How the lineage packer
    reads clauses. *)

val weight : Wtable.t -> t -> Rational.t
val weight_float : Wtable.t -> t -> float

val compare : t -> t -> int
(** Fewer bindings first, then lexicographic on the sorted (variable,
    value) bindings. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : Wtable.t -> t -> string
(** Human-readable, with variable names from the W table. *)
