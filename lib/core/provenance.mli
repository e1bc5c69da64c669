(** Data provenance — the ≺ relation of Section 6, computed as data, and
    the one set of per-operator ≺ rules behind every annotated evaluator.

    [(t, Q) ≺ (r, R)] holds when changing the membership of [r] in [R] can
    change the membership of [t] in the result of [Q]; Lemma 6.4 bounds a
    result tuple's error by summing over the tuples of {e maximal
    σ̂-subexpressions} in its provenance.  {!unary} and {!binary} are that
    relation, one operator at a time, over any per-tuple annotation that
    knows how two annotations meeting at one tuple combine ([merge]):
    - σ and ρ preserve the annotation;
    - π, [conf]/[poss]/[cert] and repair-key map each {e possible} input
      tuple to its output tuple (π along the projection; the others map an
      output row to the input row with its data part, since membership in
      their results is membership in poss of the input);
    - ∪ and − merge the two sides' annotations;
    - × and ⋈ merge each combined pair's two annotations
      ({!Eval_exact.fold_pairs});
    - an input with an empty annotation yields an empty one, so reliable
      subtrees cost nothing.
    A tuple with no annotation contributes nothing.  Annotations meeting at
    one output tuple merge in ascending {!Tuple.compare} order of their
    input tuples for π, in [fold_pairs] order for × and ⋈ (where no two
    pairs meet), and with the left operand's annotation first for ∪ and −,
    so a float sum adds in one fixed order.

    {!compute} instantiates the rules with sets of {e leaves}: a leaf is
    either a base-table tuple or an output tuple of a maximal σ̂
    subexpression (σ̂ is opaque to ≺, exactly as in the paper).
    {!Eval_approx} instantiates them with its Lemma 6.4 error bounds and
    suspect flags. *)

open Pqdb_relational
open Pqdb_urel

(** {1 Per-tuple tables} *)

type 'a table
(** Annotations keyed by data tuple: a [(Tuple.t * 'a)] array, strictly
    ascending by {!Tuple.compare}.  It is keyed by tuple, not aligned with
    a relation's runs, since σ̂ annotates rejected suspects that its output
    lacks.  Costs, for [n] entries: built in O(n) from ascending input; a
    lookup is a binary search, O(log n).  The rules below merge ∪'s two
    tables in one O(n + m) walk, and gather the (output tuple, annotation)
    pairs of π, × and ⋈ by a stable sort, skipped when the pairs already
    ascend (× and ⋈'s always do), then fold the entries that meet into
    the first one's tuple. *)

val empty : 'a table
val is_empty : 'a table -> bool

val of_ascending : (Tuple.t * 'a) array -> 'a table
(** The table of these entries, which it takes over; O(n).
    @raise Invalid_argument unless the tuples ascend strictly. *)

val find_opt : 'a table -> Tuple.t -> 'a option

val bindings : 'a table -> (Tuple.t * 'a) list
(** Ascending. *)

val filter_map_along :
  (Tuple.t -> 'a option -> 'b option) -> 'a table -> Tuple.t list -> 'b list
(** [filter_map_along f table tuples] is [List.filter_map] of [f t (find_opt
    table t)] over [tuples], which must ascend strictly: one walk of both,
    O(n + |tuples|), no search. *)

(** {1 The ≺ rules} *)

val unary :
  merge:('a -> 'a -> 'a) ->
  Pqdb_ast.Ua.t ->
  'a table Eval_exact.node ->
  Urelation.t ->
  'a table
(** [unary ~merge q a urel] annotates the output [urel] of the one-operand
    node [q] over the walked operand [a] — an {!Eval_exact.rules} [unary]
    rule.  [conf_{ε,δ}] is treated as [conf].  σ̂ is not a rule here: its
    output tuples are leaves of ≺, which the caller annotates. *)

val binary :
  merge:('a -> 'a -> 'a) ->
  Pqdb_ast.Ua.t ->
  'a table Eval_exact.node ->
  'a table Eval_exact.node ->
  Urelation.t ->
  'a table
(** The {!Eval_exact.rules} [binary] rule of ×, ⋈, ∪ and −. *)

(** {1 Leaf provenance} *)

type leaf =
  | Base of string * Tuple.t  (** base table name, tuple *)
  | Sigma_hat of int * Tuple.t
      (** pre-order index of the (maximal) σ̂ node, output tuple *)

val pp_leaf : Format.formatter -> leaf -> unit
val leaf_compare : leaf -> leaf -> int

type t

val compute : Udb.t -> Pqdb_ast.Ua.t -> t
(** Exact evaluation with provenance recording: {!Eval_exact.walk} with
    the ≺ rules over leaf sets (merged by union), so every subquery (a σ̂'s
    defining composite included) is evaluated once.  Mutates the W table
    exactly like {!Eval_exact.eval}.
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
