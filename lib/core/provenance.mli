(** Data provenance — the ≺ relation of Section 6, computed as data.

    [(t, Q) ≺ (r, R)] holds when changing the membership of [r] in [R] can
    change the membership of [t] in the result of [Q]; Lemma 6.4 bounds a
    result tuple's error by summing over the tuples of {e maximal
    σ̂-subexpressions} in its provenance.  This module evaluates a query
    exactly and records, for every result tuple, the set of {e leaves} it
    transitively depends on, where a leaf is either a base-table tuple or an
    output tuple of a maximal σ̂ subexpression (σ̂ is opaque to ≺, exactly as
    in the paper).

    The per-operator rules follow the paper: σ and ρ preserve, π maps along
    the projection, ∪ unions both occurrences, × (and ⋈) unions the two
    components.  [conf]/[poss]/[cert] map an output row to the input rows
    with the same data part (membership in their results is membership in
    poss of the input). *)

open Pqdb_relational
open Pqdb_urel

type leaf =
  | Base of string * Tuple.t  (** base table name, tuple *)
  | Sigma_hat of int * Tuple.t
      (** pre-order index of the (maximal) σ̂ node, output tuple *)

val pp_leaf : Format.formatter -> leaf -> unit
val leaf_compare : leaf -> leaf -> int

type t

val compute : Udb.t -> Pqdb_ast.Ua.t -> t
(** Exact evaluation with provenance recording: {!Eval_exact.walk} with
    leaf-set annotations, so every subquery (a σ̂'s defining composite
    included) is evaluated once.  Mutates the W table exactly like
    {!Eval_exact.eval}.
    @raise Eval_exact.Unsupported as the exact evaluator. *)

val result : t -> Urelation.t
(** The query result — identical to {!Eval_exact.eval}, conditions and W
    variables included: both leave the same W table behind. *)

val leaves : t -> Tuple.t -> leaf list
(** Sorted leaf dependencies of a result data tuple (empty for unknown
    tuples). *)

val sigma_hat_leaves : t -> Tuple.t -> (int * Tuple.t) list
(** Just the σ̂ leaves — the summation domain of Lemma 6.4(1). *)

val sigma_hat_count : t -> int
(** Number of maximal σ̂ subexpressions encountered. *)
