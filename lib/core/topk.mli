(** Top-k tuples by confidence via multisimulation on compiled lineage.

    The paper's introduction cites Ré, Dalvi and Suciu's top-k evaluation on
    probabilistic data [16] as one of the approximation lines it
    generalizes.  This module implements the interval-pruning idea on top of
    the lineage compiler: every candidate's DNF is compiled first
    ({!Pqdb_montecarlo.Compile}), so fully-decomposable tuples enter the race
    with point intervals and zero sampling cost, and every other candidate
    carries one incremental Karp-Luby sampler over its whole normalized DNF
    ({!Pqdb_montecarlo.Compile.sampled_dnf}), whose Chernoff interval is the
    candidate's confidence interval; only candidates whose intervals
    straddle the k-th boundary are refined further, so clearly-in and
    clearly-out tuples stop sampling early.

    Before any sampler is even allocated, an {e a-priori prescreen} on the
    compiled brackets drops clear losers: with θ the k-th largest compiled
    lower bound, a candidate whose compiled upper bound lies strictly below
    θ can never rank and is pruned for the cost of compilation alone — on
    skewed workloads most of the field never materializes estimators, which
    bounds the race's resident memory the same way streaming bounds the
    batch engine's.  The best pruned upper bound stays in the certification
    arithmetic, so [certified] still means what it says.

    Like predicate approximation, ranking has singularities: ties at the
    boundary cannot be separated, so refinement stops at the relative floor
    [eps0] and the result is flagged uncertified. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel

type result = {
  ranked : (Tuple.t * float) list;
      (** the top-k tuples with their final estimates, best first *)
  claim : Pqdb_montecarlo.Guarantee.t;
      (** what the ranking claims about the selected set (ε = 0: it is the
          true top k).  It is certified when every selected tuple's lower
          bound clears every rejected tuple's upper bound.  Each sampled
          candidate's interval holds except with [δ/n]
          ({!Pqdb_montecarlo.Guarantee.split} over the [n] candidates), so
          a certificate resting on [m] sampled intervals is
          [Sampled {0; m·δ/n}], their {!Pqdb_montecarlo.Guarantee.union};
          one resting on exact values only is [Exact], and on pruned
          compiled brackets as well [Certain 0].  The intervals are
          re-checked after every round at the same [δ/n], so the δ holds at
          each look, not across the looks (ROADMAP item B).  [Bracket] when
          uncertified: the order claims nothing. *)
  estimator_calls : int;
  rounds : int;
  exact_candidates : int;
      (** candidates whose lineage compiled to a closed form *)
  sampled : (Tuple.t * int) list;
      (** every candidate that spent estimator calls, with its trial count *)
}

val certified : result -> bool
(** The ranking is certified: its claim is not [Bracket]. *)

val run :
  ?budget:Pqdb_montecarlo.Budget.t ->
  ?eps0:float ->
  ?max_rounds:int ->
  ?compile_fuel:int ->
  rng:Rng.t ->
  delta:float ->
  k:int ->
  Wtable.t ->
  (Tuple.t * Assignment.t list) list ->
  result
(** Rank the candidates and return the [k] most probable.  Each candidate's
    clause set, over the W table, is compiled with [compile_fuel] (default
    {!Pqdb_montecarlo.Compile.default_fuel}; [~compile_fuel:0] recovers
    pure-sampling multisimulation).  [delta] is split evenly across
    candidates for the per-tuple interval bounds ([claim] above).
    [budget] makes the ranking anytime: refinement rounds charge the
    shared governor, and on exhaustion the current order is returned
    uncertified (its interval bounds remain sound).
    @raise Invalid_argument when [k <= 0] or there are no candidates. *)

val query :
  ?budget:Pqdb_montecarlo.Budget.t ->
  ?eps0:float ->
  ?max_rounds:int ->
  ?compile_fuel:int ->
  rng:Rng.t ->
  delta:float ->
  k:int ->
  Udb.t ->
  Pqdb_ast.Ua.t ->
  result
(** Convenience: evaluate the (positive) query exactly on the representation
    level, then rank its possible tuples by confidence.  Mutates the W table
    like {!Eval_exact.eval}. *)
