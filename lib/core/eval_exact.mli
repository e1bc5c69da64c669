(** Exact UA evaluation over U-relational databases, and the one memoized
    query walker behind every U-relational evaluator.

    Positive operations use the parsimonious translation
    ({!Pqdb_urel.Translate}, Proposition 3.3); [conf] uses the exact lineage
    decomposer ({!Pqdb_montecarlo.Lineage.exact} — the #P part of
    Theorem 3.4);
    [repair-key] extends the shared W table; σ̂ and [conf_{ε,δ}] are
    interpreted exactly (σ̂ via its defining composite).  The result is a
    U-relation over the database's W table.

    {!walk} is that evaluation with hooks: {!Eval_approx} and {!Provenance}
    are the same walk with their own per-tuple annotations, propagated by
    the one set of ≺ rules in {!Provenance}, so all three evaluators see
    the same relations, the same memo and the same W-variable numbering. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel

exception Unsupported of string
(** Raised on unknown tables, on general difference over uncertain
    arguments (only [−c] is in the fragment), on [conf] over an input that
    already has a [P] column, and on repair-key over non-complete inputs. *)

val eval : Udb.t -> Pqdb_ast.Ua.t -> Urelation.t
(** Note: mutates the database's W table when the query contains
    [repair-key]. *)

val eval_relation : Udb.t -> Pqdb_ast.Ua.t -> Relation.t
(** Evaluate and forget conditions; meant for queries whose result is
    complete (e.g. ending in [conf]).
    @raise Unsupported when the result still carries conditions. *)

val all_confidences :
  Wtable.t -> Urelation.t -> (Tuple.t * Rational.t) list
(** [conf(R)] as data: each possible tuple of the U-relation with its exact
    confidence, in {!Pqdb_urel.Urelation.clauses_by_tuple} order.  The one
    exact path behind [conf], [cert] and {!confidences}. *)

val confidences : Udb.t -> Pqdb_ast.Ua.t -> (Tuple.t * Rational.t) list
(** Exact confidence of every possible result tuple ([conf] applied on
    top). *)

(** {1 The walker} *)

type 'a node = { urel : Urelation.t; ann : 'a }
(** A subquery's U-relation and the caller's annotation of it. *)

type 'a rules = {
  leaf : Pqdb_ast.Ua.t -> Urelation.t -> 'a;
      (** annotation of a [Table] or [Lit] node *)
  unary : Pqdb_ast.Ua.t -> 'a node -> Urelation.t -> 'a;
      (** annotation of a one-operand node from its operand and its own
          U-relation.  [unary q a] is applied before the operator runs, so
          a rule that raises there refuses the node before its relation is
          built (and before repair-key adds variables).  σ̂ without an
          override comes here too, with its defining composite as the
          operand *)
  binary : Pqdb_ast.Ua.t -> 'a node -> 'a node -> Urelation.t -> 'a;
      (** annotation of a product, join, union or difference *)
  aconf : (Pqdb_ast.Ua.approx_params -> 'a node -> 'a node) option;
      (** replaces the exact [conf] of a [conf_{ε,δ}] node, given its walked
          operand (already checked to have no [P] column) *)
  sigma_hat : (Pqdb_ast.Ua.sigma_hat -> 'a node -> 'a node) option;
      (** replaces the exact composite of a σ̂ node, given its walked
          input *)
}
(** What a caller may change: the per-tuple annotation of every node, and
    the U-relation of [conf_{ε,δ}] and σ̂ only.  Every other U-relation,
    and the unknown-table, difference and [P]-column errors, come from the
    walker. *)

val walk : 'a rules -> Udb.t -> Pqdb_ast.Ua.t -> 'a node
(** One evaluation with one memo: structurally identical subqueries (equal
    [Ua.t] values) are walked once and denote one node, so shared
    repair-keys create one set of W variables and the rules run once per
    distinct subquery.  Operands are walked left to right — a binary node's
    left operand, including every repair-key below it, before its right —
    and each node's rule runs after its operands'.  Without a [sigma_hat]
    override a σ̂ node is its fully desugared composite
    ({!Pqdb_ast.Ua.desugar_sigma_hat}), walked in the same memo, so the
    [unary] rule sees only σ̂ nodes no other σ̂ contains.  [eval] is [walk]
    with unit annotations.  Mutates the W table like {!eval}. *)

val fold_pairs :
  Urelation.t ->
  Urelation.t ->
  (Tuple.t -> Tuple.t -> Tuple.t -> 'b -> 'b) ->
  'b ->
  'b
(** [fold_pairs a b f acc] folds [f ta tb out] over the pairs of possible
    tuples of [a] (outer, ascending) and [b] (inner, ascending) that a
    natural join combines into the data tuple [out]; with no shared
    attribute, that is a product's every pair.  This is the ≺ rule of × and
    ⋈ ({!Provenance.binary}), and with it the provenance sum of Lemma
    6.4(1).  [b] is indexed once by {!Pqdb_urel.Translate.matches}, so the
    cost is O(|a| + |b|) plus one [f] per pair, and [out] ascends
    strictly over the fold. *)

val with_p : Urelation.t -> Tuple.t array -> Urelation.t
(** [conf]'s output shape: the input's data columns plus [P], one certain
    row per given tuple, each a data tuple with its P value appended.  The
    array's tuples become the rows ({!Pqdb_urel.Urelation.of_array}): O(n)
    when they ascend strictly, as [conf]'s do. *)
