(** The uncertainty algebra UA (Definition 2.1) plus the approximate
    operators of Sections 4 and 6.

    One AST serves three interpreters:
    - the possible-worlds ground-truth evaluator ({!Pqdb_worlds.Eval_naive}),
    - the exact U-relational evaluator ([Pqdb.Eval_exact]),
    - the approximate evaluator with Karp-Luby confidence and Figure-3
      predicate decisions ([Pqdb.Eval_approx]). *)

open Pqdb_relational

type approx_params = { eps : float; delta : float }
(** Parameters of the [conf_{ε,δ}] FPRAS operator (Corollary 4.3). *)

type t =
  | Table of string
      (** Base-relation reference. *)
  | Lit of Relation.t
      (** Literal constant relation (complete by definition), e.g. the
          [{1, 2}] toss relation of Example 2.2. *)
  | Select of Predicate.t * t
      (** σ_φ, applied per world. *)
  | Project of (Expr.t * string) list * t
      (** π with computed columns; plain π_Ā is the identity column list. *)
  | Rename of (string * string) list * t
      (** ρ restricted to attribute renaming; arithmetic "renames" like
          [ρ_{A+B→C}] are expressed through {!Project}. *)
  | Product of t * t  (** × — schemas must be disjoint. *)
  | Join of t * t  (** natural join ⋈ (definable, but pervasive). *)
  | Union of t * t
  | Diff of t * t
      (** General difference (full UA); the U-relational evaluators accept it
          only when both arguments are complete ([−c]). *)
  | Conf of t
      (** [conf]: adds column [P]; result is complete by definition. *)
  | ApproxConf of approx_params * t
      (** [conf_{ε,δ}] (Section 4). Exact evaluators treat it as [Conf]. *)
  | RepairKey of { key : string list; weight : string; query : t }
      (** [repair-key_{Ā@B}]: uncertainty introduction from a complete
          relation with positive weight column [B]. *)
  | Poss of t  (** possible tuples; [π_sch(R)(conf(R))]. *)
  | Cert of t  (** certain tuples; [π_sch(R)(σ_{P=1}(conf(R)))]. *)
  | ApproxSelect of sigma_hat
      (** σ̂ (Section 6): selection on a predicate over per-tuple confidence
          values.  The result schema is the union of the [conf_args]
          attribute lists; the internal [P] columns are projected away so that
          exact and approximate results are set-comparable. *)

and sigma_hat = {
  phi : Apred.t;  (** predicate over variables [0 .. k-1] *)
  conf_args : string list list;
      (** [Āᵢ] attribute lists; variable [i] of [phi] denotes
          [conf(π_{Āᵢ}(input))] of the current tuple *)
  input : t;
}

(** {1 Builders} *)

val table : string -> t
val select : Predicate.t -> t -> t
val project : string list -> t -> t
val project_cols : (Expr.t * string) list -> t -> t
val rename : (string * string) list -> t -> t
val product : t -> t -> t
val join : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val conf : t -> t
val approx_conf : eps:float -> delta:float -> t -> t
val repair_key : key:string list -> weight:string -> t -> t
val poss : t -> t
val cert : t -> t
val approx_select : Apred.t -> string list list -> t -> t

(** {1 Structure} *)

val tables : t -> string list
(** Base tables mentioned, deduplicated. *)

val size : t -> int
(** Number of AST nodes. *)

val nesting_depth : t -> int
(** Maximum number of {!ApproxSelect} nodes on any root-to-leaf path — the
    [d] of Proposition 6.6. *)

val max_conf_width : t -> int
(** Maximum [k] (number of conf arguments) over all σ̂ nodes — part of the
    [k] of Proposition 6.6 (0 when no σ̂ occurs). *)

val is_positive : t -> bool
(** No {!Diff} node — the positive fragment for which the U-relational
    translation and the approximation results apply. *)

val desugar_sigma_hat : t -> t
(** Rewrite every σ̂ node into its defining composite
    [π(σ_φ(ρ(conf(π(Q))) ⋈ …))] (Section 6) — the exact semantics used by
    ground-truth evaluators. *)

exception Schema_error of string

val output_attributes : lookup:(string -> string list option) -> t -> string list
(** Output attribute list of the query given the base-table schemas
    ([lookup] returns a table's attributes, [None] when unknown).  Follows
    the operator semantics: products/joins concatenate (joins deduplicate
    shared names), [conf]/[conf_{ε,δ}] append ["P"], [repair-key] keeps its
    input schema, σ̂ returns the union of its conf-argument lists.
    @raise Schema_error on unknown tables, duplicate product attributes,
    unknown projection/rename/selection attributes, or mismatched union
    schemas — a static type check for queries. *)

val pp : Format.formatter -> t -> unit
