(** The parsimonious translation of positive UA operations to operations on
    U-relational representations (Section 3, after Theorem 3.1).

    Every function here is polynomial-time in the size of the representation
    (Proposition 3.3); only confidence computation (in {!Confidence}) is
    hard.  [repair-key] extends the W table with fresh variables, one per
    key group — except that single-alternative groups are elided (their tuple
    is certain, mirroring the 2headed rows of Figure 1(b) whose [D] columns
    are empty). *)

open Pqdb_relational

val select : Predicate.t -> Urelation.t -> Urelation.t
(** [σ_φ(U_R)]: filter rows by the data tuple. *)

val project : (Expr.t * string) list -> Urelation.t -> Urelation.t
(** [π(U_R)]: project the data columns, keep conditions, deduplicate.
    Adjacent rows that share one tuple (as {!join}'s runs do) share its
    image, computed once. *)

val project_attrs : string list -> Urelation.t -> Urelation.t

val rename : (string * string) list -> Urelation.t -> Urelation.t

val product : Urelation.t -> Urelation.t -> Urelation.t
(** [U_R ⋈_{D consistent} U_S] with condition union — pairs with inconsistent
    conditions are dropped. *)

val join : Urelation.t -> Urelation.t -> Urelation.t
(** Natural join on shared data attributes, with condition union.  One hash
    index over [b]'s runs, one probe per run of [a], and the rows written
    into one array in tuple order: each run of [a] against each matching
    run of [b], so Urelation sorts conditions only within output runs, and
    not at all when one side's conditions are empty.  An output run's rows
    share one tuple, built from the two runs' first rows. *)

type run = {
  tuple : Tuple.t;  (** the run's tuple, as {!Urelation.fold_runs} gives it *)
  own : Tuple.t;  (** its projection on the attributes only [b] has *)
  clauses : Assignment.t list;  (** its conditions, ascending *)
}
(** One possible tuple of the right operand of a join. *)

val matches : Urelation.t -> Urelation.t -> Schema.t * (Tuple.t -> run list)
(** [matches a b] is the natural join's output schema and its probe: [probe
    ta] lists the runs of [b] whose shared attributes equal [ta]'s, in
    ascending tuple order, and [Tuple.concat ta r.own] is the joined tuple
    of each.  [b] is indexed once, in O(|b|); each probe hashes one key.
    With no shared attribute every run of [b] matches: the product. *)

val union : Urelation.t -> Urelation.t -> Urelation.t

val diff_complete : Urelation.t -> Urelation.t -> Urelation.t
(** [−c]: difference of two complete-by-construction representations.
    @raise Invalid_argument when either argument has nonempty conditions —
    general difference is outside the positive fragment (Theorem 3.4 bounds
    would not apply). *)

val poss : Urelation.t -> Relation.t
(** Possible tuples, as a complete relation. *)

val repair_key :
  Wtable.t -> key:string list -> weight:string -> Urelation.t -> Urelation.t
(** [repair-key_{Ā@B}]: requires a complete representation (Definition 2.1
    applies repair-key to complete relations).  Introduces one fresh W
    variable per [Ā]-group with more than one alternative; probabilities are
    the normalized weights.  The result keeps the input schema.
    @raise Invalid_argument on a non-complete input or non-positive
    weights. *)
