(** Exact UA evaluation over U-relational databases.

    Positive operations use the parsimonious translation
    ({!Pqdb_urel.Translate}, Proposition 3.3); [conf] uses the exact lineage
    decomposer ({!Pqdb_montecarlo.Lineage.exact} — the #P part of
    Theorem 3.4);
    [repair-key] extends the shared W table; σ̂ and [conf_{ε,δ}] are
    interpreted exactly (σ̂ via its defining composite).  The result is a
    U-relation over the database's W table. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel

exception Unsupported of string
(** Raised on general difference over uncertain arguments (only [−c] is in
    the fragment) and on repair-key over non-complete inputs. *)

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
    exact path behind [conf], [cert], {!confidences} and the approximate
    evaluator's exact operators. *)

val confidences : Udb.t -> Pqdb_ast.Ua.t -> (Tuple.t * Rational.t) list
(** Exact confidence of every possible result tuple ([conf] applied on
    top). *)
