(** Conditioning: renormalized confidence under a constraint set (Koch &
    Olteanu, "Conditioning Probabilistic Databases", on top of the source
    paper's approximation machinery).

    A constraint set [c] denotes the event
    [E ∧ ¬V] — every [Holds] query nonempty ([E], a conjunction) and every
    [Denial]/[Fd] violation query empty ([¬V], [V] the union of violation
    lineages).  Both [E] and [V] are positive-DNF events over the W table,
    so Theorem 4.4 turns every conditioned quantity into differences of
    positive-DNF probabilities:

    {v Pr(φ | c) = Pr(φ ∧ c) / Pr(c)
                 = (Pr(φ∧E) − Pr(φ∧E∧V)) / (Pr(E) − Pr(E∧V)) v}

    Each of the four terms is answered exactly where the lineage compiles
    ({!Pqdb_montecarlo.Compile}) and otherwise by one Karp–Luby pass, yielding
    sound anytime brackets; the difference and ratio are propagated through
    interval arithmetic ({!Pqdb_numeric.Interval.difference} /
    {!Pqdb_numeric.Interval.ratio}).  Each solve runs at δ/4
    ({!Pqdb_montecarlo.Guarantee.split}), and a Karp–Luby pass at δ/4
    claims 2δ/4, so the reported [lo, hi] holds with probability
    ≥ 1 − 2δ when all four solves sample (union bound); each answer's
    claim composes the four with {!Pqdb_montecarlo.Guarantee.difference}
    and {!Pqdb_montecarlo.Guarantee.ratio} and states the δ actually
    spent.  A denominator certified zero — or not certifiable
    above zero — raises the typed
    {!Pqdb_runtime.Pqdb_error.Unsatisfiable_condition}; no NaN or division
    by zero can escape. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
open Pqdb_montecarlo

type compiled
(** A constraint set translated against a database: the [E] and [V] lineage
    DNFs.  Valid while the W table's generation is unchanged. *)

val compile : Udb.t -> Constraint_set.t -> compiled
(** Evaluate each member constraint to its lineage ([Fd] via
    {!Pqdb.Egd.fd_violation} with the table's schema looked up in the
    database).  @raise Invalid_argument on an unknown table or attribute in
    an [Fd] constraint. *)

val constraints : compiled -> Constraint_set.t

val conjoin : Assignment.t list -> Assignment.t list -> Assignment.t list
(** DNF conjunction: clause-set product via {!Assignment.union}, dropping
    inconsistent pairs, normalized.  Exposed for tests. *)

(** {1 Exact (rational) path} *)

val probability : Wtable.t -> compiled -> Rational.t
(** Exact [Pr(c)]. *)

val exact_conditioned :
  Wtable.t -> compiled -> Assignment.t list -> Rational.t
(** Exact [Pr(φ | c)] for a tuple lineage [φ].
    @raise Pqdb_runtime.Pqdb_error.Error ([Unsatisfiable_condition]) when
    [Pr(c) = 0]. *)

val exact_confidences :
  Udb.t -> compiled -> Pqdb_ast.Ua.t -> (Tuple.t * Rational.t) list
(** Exact conditioned confidence of every possible answer tuple.  Like
    {!Pqdb.Eval_exact.eval}, mutates the W table if the query contains
    [repair-key] (constraints themselves cannot). *)

(** {1 Anytime path} *)

val solve_batch :
  ?budget:Budget.t ->
  ?fuel:int ->
  ?cache:Memo.t ->
  seed:int ->
  Wtable.t ->
  compiled ->
  Assignment.t list array ->
  eps:float ->
  delta:float ->
  emit:(Shard.outcome -> unit) ->
  Compile.outcome * Compile.outcome array
(** Conditioned confidence of every tuple lineage in [sets]: the [Pr(c)]
    denominator, its bracket certified positive, then the tuples as one
    {!Confidence.run_one_shard} whose outcome goes to [emit].  Returns the
    denominator and each tuple's answer, in order, with the trials its
    numerator spent (the denominator's are reported once, on it) and its
    claim: the ratio of the numerator's and denominator's claims, each the
    difference of its two conjuncts' ([Exact] only when all four compiled
    exactly, [Certain] when none sampled but a bracket certified one,
    [Sampled] with the summed δ as soon as one sampled, [Bracket] when one
    kept only its bracket and none sampled).

    {e Lanes.}  {!Pqdb_numeric.Rng.lanes} over [n + 1] from [seed]: lane
    [n] feeds the denominator, lane [i] tuple [i], each split in two for
    its conjuncts and built only when one samples.  {e Budget.}  The
    denominator spends [budget] first; a trial cap it leaves is dealt over
    the tuples by cost (the sum of the two conjuncts' {!Compile.cost_cap}s
    at δ/4), one slice each, and the two conjuncts spend a slice in order.
    So the answer is a pure function of (lineage, constraint set, seed,
    eps, delta, fuel, trial cap), whatever the pool size.

    With a [cache], conjuncts compile through it keyed on the tuple's own
    clauses, salted with the constraint-set fingerprint and a conjunct
    tag: conditioned and unconditioned entries never alias, and a warm
    answer is byte-identical to its cold run.
    @raise Pqdb_runtime.Pqdb_error.Error ([Unsatisfiable_condition]) when
    the [Pr(c)] bracket is certified zero or cannot be bounded away from
    zero; the first error building a tuple is raised as well. *)

val approx_confidences :
  ?budget:Budget.t ->
  ?fuel:int ->
  ?cache:Memo.t ->
  ?seed:int ->
  ?eps:float ->
  ?delta:float ->
  Udb.t ->
  compiled ->
  Pqdb_ast.Ua.t ->
  (Tuple.t * Compile.outcome) list
(** Evaluate the (positive) query and estimate every answer tuple's
    conditioned confidence.  Deterministic per [seed] (defaults: [seed=42],
    [eps=0.05], [delta=0.01]). *)

val topk :
  ?budget:Budget.t ->
  ?fuel:int ->
  ?cache:Memo.t ->
  ?seed:int ->
  ?eps:float ->
  ?delta:float ->
  k:int ->
  Udb.t ->
  compiled ->
  Pqdb_ast.Ua.t ->
  (Tuple.t * Compile.outcome) list
(** The [k] answer tuples ranked by conditioned confidence (descending,
    stable on ties). *)
