(** Boolean selection conditions: Boolean combinations of atomic comparisons
    between scalar expressions.

    The paper allows negation inside selection conditions even in positive UA
    (Section 2), so the full Boolean structure is available here; positivity
    restrictions apply to the algebra's difference operator, not to σ's
    condition. *)

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | Cmp of comparison * Expr.t * Expr.t
  | And of t * t
  | Or of t * t
  | Not of t
  | True
  | False

val ( = ) : Expr.t -> Expr.t -> t
val ( <> ) : Expr.t -> Expr.t -> t
val ( < ) : Expr.t -> Expr.t -> t
val ( <= ) : Expr.t -> Expr.t -> t
val ( > ) : Expr.t -> Expr.t -> t
val ( >= ) : Expr.t -> Expr.t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t

val eval : Schema.t -> Tuple.t -> t -> bool
val attributes : t -> string list
val check : Schema.t -> t -> unit
val pp : Format.formatter -> t -> unit

val nnf : t -> t
(** Push negations to the atoms (De Morgan) and absorb them into the
    comparison operators, eliminating [Not] entirely. *)
