(** Approximate UA evaluation (Section 6): Karp-Luby confidence, Figure-3
    approximate selection, and per-tuple error bounds in the style of
    Lemma 6.4, with the Theorem 6.7 doubling driver on top.

    Each result tuple carries an accumulated error bound [μ] and a suspect
    flag:
    - base tuples are reliable ([μ = 0], not suspect);
    - relational operators sum the bounds of the provenance tuples, capped
      at 0.5, and are suspect when one of them is (Lemma 6.4(1)) — the
      one set of ≺ rules in {!Provenance} ({!Provenance.unary},
      {!Provenance.binary}), which [explain]'s provenance also runs;
    - σ̂ adds the Figure-3 decision bound [min(0.5, Σᵢ δᵢ(ε))] to the input
      contribution (Lemma 6.4(2)); values whose lineage compiles exactly
      contribute no [δᵢ], so a decision over exact values adds 0;
    - [conf_{ε,δ}] adds its [δ] (the probability its [P] value is outside the
      ε-relative interval).

    Tuples whose σ̂ decision hit the round budget before reaching its target
    are flagged as {e singularity suspects} — they are exactly the tuples
    Theorem 6.7 cannot (and provably need not) guarantee — and so are
    tuples whose decision leaned on the ε₀ floor or, over compiled values,
    sat within the floats' rounding bound of the boundary.

    The pass is {!Eval_exact.walk} with μ/suspect annotations, overriding
    only the U-relations of [conf_{ε,δ}] (Karp-Luby batch) and σ̂
    (Figure 3); every other operator's relation, and its W variables, are
    exactly {!Eval_exact.eval}'s.  Besides those two overrides this module
    holds only footnote 3's refusal of repair-key above an approximate
    operator; π, [poss] and [cert] map only the possible tuples of their
    input, so a bound an earlier σ or − left on a tuple it removed does
    not reach their output. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel

type stats = {
  mutable decisions : int;  (** σ̂ tuple decisions made *)
  mutable estimator_calls : int;  (** total Karp-Luby estimator calls *)
  mutable round_limit_hits : int;  (** decisions stopped by the budget *)
}

type result = {
  urel : Urelation.t;
  errors : (Tuple.t * float) list;
      (** per possible data tuple: accumulated error bound μ *)
  suspects : Tuple.t list;
      (** tuples whose provenance contains a budget-limited (suspected
          singular) σ̂ decision *)
  unreliable : bool;
      (** true iff the query holds an approximate operator (σ̂ or
          [conf_{ε,δ}]) *)
}

val max_error : result -> float
val error_of : result -> Tuple.t -> float

val eval :
  ?budget:Pqdb_montecarlo.Budget.t ->
  ?stream:Pqdb_montecarlo.Confidence.stream_options ->
  ?compile_fuel:int ->
  ?eps0:float ->
  ?max_rounds:int ->
  ?sigma_delta:float ->
  rng:Rng.t ->
  Udb.t ->
  Pqdb_ast.Ua.t ->
  result * stats
(** One evaluation pass.  [sigma_delta] (default 0.05) is the per-decision
    target handed to Figure 3; [max_rounds] is the per-decision round budget
    [l] of Theorem 6.7 (default: unlimited, i.e. run Figure 3 to its stopping
    condition).  Mutates the W table via [repair-key] — evaluate on
    {!Pqdb_urel.Udb.copy} when the database must survive.

    [compile_fuel] (default {!Pqdb_montecarlo.Compile.default_fuel}) is
    handed to every σ̂ decision ({!Predicate_approx.decide}) and to every
    [conf_{ε,δ}] batch ({!Pqdb_montecarlo.Confidence.run_stream}).  A σ̂
    candidate whose lineage compiles exactly enters Figure 3 as a
    constant and samples nothing; a decision over exact values only has
    error bound 0, and is a suspect when [ε_φ] does not clear the compiled
    floats' rounding bound.  [~compile_fuel:0] samples every σ̂ value, as
    Figure 3 does over raw Karp-Luby estimators; the [conf_{ε,δ}] batches
    keep {!Pqdb_montecarlo.Confidence}'s meaning of 0 (normalization,
    trivial cases and single clauses only).

    [budget] makes the pass anytime: [conf_{ε,δ}] batches and σ̂ decisions
    charge the shared governor and degrade on exhaustion — estimates stay
    sound but tuples that missed their (ε, δ) contract are reported as
    {!result.suspects} (σ̂ decisions additionally count as
    [round_limit_hits]).

    [conf_{ε,δ}] batches always run through the streaming shard engine
    ({!Pqdb_montecarlo.Confidence.run_stream}); [stream] overrides its
    options — shard ceiling, retry budget, and crash-recovery journal.  A
    query with several [aconf] nodes journals the first at the given path
    and later ones at deterministic [.aconf<k>] suffixes, so [resume] pairs
    each node with its own journal.
    @raise Eval_exact.Unsupported as the exact evaluator, and additionally,
    before anything is evaluated, when [repair-key] sits above a σ̂ or a
    [conf_{ε,δ}] (footnote 3 of the paper). *)

val eval_with_guarantee :
  ?budget:Pqdb_montecarlo.Budget.t ->
  ?stream:Pqdb_montecarlo.Confidence.stream_options ->
  ?compile_fuel:int ->
  ?eps0:float ->
  rng:Rng.t ->
  delta:float ->
  Udb.t ->
  Pqdb_ast.Ua.t ->
  result * stats * int
(** The Theorem 6.7 driver: evaluate with round budget [l] (starting at
    1), and while some tuple's error exceeds [delta], double [l] —
    tightening the per-decision target along with it, since bounds sum
    over provenance — and re-evaluate on a fresh copy of the database.  Stops unconditionally once [l] reaches the
    [Stats.theorem_6_7_rounds] bound, so singular tuples cannot loop it
    forever.  Returns the final result, cumulative stats and the final [l].
    When every σ̂ value compiles exactly the first attempt already meets
    [delta] (its decisions have error 0), so [l = 1].  [compile_fuel] is
    passed to every attempt as in {!eval}.

    Each attempt runs on a fresh {!Pqdb_urel.Udb.copy}, so repair-key
    variables created during evaluation live in that copy's W table; use the
    driver for queries whose result is complete (σ̂ or [conf] on top — the
    intended use), where result rows carry no conditions.

    With a [budget], the doubling also stops (with the current, degraded
    result) once the governor is exhausted.

    [stream] is threaded to every attempt's [conf] batches as in {!eval},
    except that only the first attempt honours [resume] — later doubling
    attempts can present different batches to the same node, so they start
    their journals fresh instead of failing the fingerprint check. *)
