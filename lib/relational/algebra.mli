(** Classical relational algebra over {!Relation} values.

    These operators implement the per-world semantics of Definition 2.1: in
    the possible-worlds evaluator they are applied inside each world, and in
    the U-relational evaluator they are the target language of the
    parsimonious translation of Section 3. *)

type projection = Expr.t * string
(** An output column: expression and its output attribute name.  Plain
    projection is [(Attr a, a)]; computed columns like [P1/P2 → P] are
    [(Div (Attr "P1", Attr "P2"), "P")]. *)

val select : Predicate.t -> Relation.t -> Relation.t
val project : projection list -> Relation.t -> Relation.t
(** Set semantics (duplicates eliminated).
    @raise Invalid_argument on duplicate output names. *)

val project_attrs : string list -> Relation.t -> Relation.t
(** π onto plain attribute names. *)

val rename : (string * string) list -> Relation.t -> Relation.t
(** Pure attribute renaming (no new columns). *)

val product : Relation.t -> Relation.t -> Relation.t
(** @raise Invalid_argument on attribute-name clashes. *)

val join : Relation.t -> Relation.t -> Relation.t
(** Natural join on common attribute names. *)

val union : Relation.t -> Relation.t -> Relation.t
val diff : Relation.t -> Relation.t -> Relation.t
val inter : Relation.t -> Relation.t -> Relation.t

val group_by : string list -> Relation.t -> (Tuple.t * Relation.t) list
(** Partition by the values of the given attributes; keys are the projected
    tuples, groups keep the full schema.  Used by repair-key and conf. *)
