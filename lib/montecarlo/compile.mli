(** The confidence compilation engine: pay Monte-Carlo cost only for the
    hard cases.

    Most real lineage decomposes (Koch & Olteanu, "Conditioning probabilistic
    databases"): after normalization ({!Lineage.normalize}) a tuple's DNF
    usually splits into variable-disjoint independent components, each of
    which factors further through disjoint (mutually exclusive) expansions.
    [compile] applies those rewrites through {!Lineage.decompose} —
    independent-OR, disjoint-OR on a variable bound in every clause, and
    {e bounded} Shannon expansion on the most-shared variable — solving
    everything it can in closed form and leaving only the irreducible
    residues as residual leaves.
    The result is a decision DAG, not a tree: a sub-DNF reached along
    several paths is compiled once and shared (a decision-DNNF in the sense
    of Amarilli et al.).  {!Lineage.exact} evaluates the same DAG in
    rationals with no fuel bound.

    {2 One estimator per compiled value}

    A compiled value is answered one way only: exactly, when no residual
    is left; from the compiled bracket with no trial, when the
    bracket already proves ε; or else by one {!Karp_luby.adaptive_partial}
    pass at (ε, δ) over the whole normalized DNF, whose interval is
    intersected with the bracket.  The residual leaves are never sampled
    one by one: the DAG pays no trial for the mass it already knows, and
    sampling the whole DNF keeps the paper's single FPRAS pass
    (Proposition 4.2) with its one failure budget δ.

    {e The bracket.}  The DAG combines children only through
    [Σ wᵢ·pᵢ (Σ wᵢ ≤ 1, wᵢ ≥ 0)] and [1 − Π(1 − pᵢ)], both monotone
    non-decreasing in every child on [[0, 1]].  So the DAG evaluated with
    every residual at [0] is at most the tuple confidence, and evaluated
    with every residual at an upper bound on its probability — its clause
    mass [min(1, Mᵢ)] — is at least it.  {!vacuous_interval} is that pair,
    widened for rounding as below.

    {2 Rounding}

    The DAG is float arithmetic: {!Lineage.decompose} folds every subtree
    it resolves into a [Const] in floats, and {!compile} evaluates the
    rest at the residual extremes.
    {e Lemma.}  Let [u = 2⁻⁵³], [V] at least the number of variables of
    the normalized DNF ({!compile} takes its literal count), [D ≥ 1] the
    largest of their domain sizes and
    [w = (2D + 8)·u·(2V − 1)].  If [w ≤ 2⁻²⁰], then for any float inputs
    [rᵢ ∈ [0, 1]] at the residuals the float value of the DAG is within
    [w] of the exact real value of the same DAG over the exact W
    probabilities at the same inputs.

    {e Proof sketch.}  Model every float operation as
    [fl(x∘y) = (x∘y)(1 + θ) + η] with [|θ| ≤ u] and [|η| ≤ 2⁻¹⁰⁷⁴], and
    every converted W probability as [p̂ = p(1 + θ) + η] with [|θ| ≤ 4u]
    ([Rational.to_float] is one correctly rounded division, or a truncated
    64-bit quotient converted in at most three roundings).  Induct on the
    variable count [V'] of the clause set a node decomposes, with the bound
    [e(V') = (2D + 8)·u·(2V' − 1)] and [e(0) = 0] (the only sets without
    variables are [∅] and [{∅}], the exact constants 0 and 1).  Every
    computed value is [≥ 0], and by induction [≤ 1 + e(V) ≤ 1 + 2⁻²⁰], so
    every complement [1 − P̂] lies in [[−2⁻²⁰, 1]].
    {ul
    {- A clause of [k ≤ V'] literals is [2k − 1] rounded factors (the
       first product is by 1, exact): error [≤ (5k − 1)·u·(1 + 2⁻²⁰) ≤
       e(V')].}
    {- A [Sum] over the [d ≤ D] values of a pivot has branches over at
       most [V' − 1] variables.  Since [Σₓ pₓ = 1] the branch errors
       carry through as at most [e(V' − 1)]; the conversions, the [d]
       products and the [d − 1] additions add at most
       [(d + 4)·u·(1 + 2⁻¹⁸)], below [e(V') − e(V' − 1)], which is
       [(2D + 8)u] at [V' = 1] and twice that above.}
    {- An [IndepOr] over [n ≥ 2] components of [V₁ + … + Vₙ ≤ V']
       variables, each [Vₖ ≥ 1]: the complements have magnitude at most 1,
       so the product telescopes to [Σₖ |q̂ₖ − qₖ| ≤ Σₖ (e(Vₖ) + u)], and
       the [n − 1] rounded products (the first is by 1) and the final
       complement add at most [n·u·(1 + 2⁻²⁰)].  The total is at most
       [(2D + 8)u(2V' − n) + 2n·u·(1 + 2⁻²⁰) ≤ e(V')], as
       [(2D + 8)(n − 1) ≥ 10(n − 1) ≥ 5n].}
    {- A residual's input is exact, error [0].}}
    The [η] terms, a few per operation, stay below [u·2⁻¹⁰⁰⁰] each and
    vanish in the slack of every step.  A shared node has one value, so
    the bound on the unfolded tree holds for the DAG.  The same model
    bounds a residual's a-priori mass [M̂ᵢ] ({!Dnf.total_weight}: [m]
    clause weights of at most [V] factors, summed): if [M̂ᵢ < 1] and
    [(5V + m)·2⁻⁵¹ ≤ 2⁻²⁰], the exact [Mᵢ] is at most
    [M̂ᵢ + (5V + m)·2⁻⁵¹].  {!vacuous_interval} widens by both bounds,
    rounding each widening outward by one ulp, and falls back to [[0, 1]]
    past the lemma's range. *)

open Pqdb_numeric
open Pqdb_urel

type t

val default_fuel : int

val compile : ?fuel:int -> Wtable.t -> Assignment.t list -> t
(** A list of at most one clause in closed form, with no packing;
    otherwise {!of_lineage} of its {!Lineage.of_clauses}, which packs and
    normalizes the list once.  [fuel] (default {!default_fuel}) bounds the
    {e distinct} Shannon expansions: each pivot charges its domain size
    plus the clause count, a sub-DNF compiled earlier in the same call is
    reused at no charge, and once the fuel is spent every sub-DNF not
    compiled yet becomes a residual leaf.  [fuel = 0] disables compilation beyond normalization, trivial
    cases and single clauses — the pure-FPRAS baseline.
    Independent-component splits and disjoint-OR expansions are free (they
    are linear-time and always shrink the problem).  Deterministic: the DAG
    and its bracket are a pure function of (W table, clause set, fuel); the
    order and duplicates of the clause list do not matter.  The DAG itself
    is not kept: a compiled value holds its size, its bracket and, unless
    it is exact, the normalized DNF, which is prepared for sampling only
    when sampled. *)

val of_lineage : ?fuel:int -> Wtable.t -> Lineage.t -> t
(** Decompose a canonical lineage ({!Lineage.decompose} over floats),
    with no packing or normalization of its own.  A value that is not
    exact keeps the lineage it compiled, which {!solve}, {!sampled_dnf}
    and {!cost_cap} read. *)

val is_exact : t -> bool
val exact_value : t -> float option
(** [Some p] iff compilation resolved the whole DNF ([is_exact]).  [p] is
    a float: it lies within [rounding_bound w clauses] of the rational
    confidence ({!Lineage.exact}), not on it. *)

val rounding_bound : Dnf.t -> float
(** The rounding lemma's [w] for the DNF's clauses: the float value of any
    DAG {!compile} builds from them is within [w] of the exact value of
    that DAG, so an {!exact_value} is within [w] of the rational
    confidence.  [V] is the literal count of the DNF's clauses
    ({!Dnf.packed}) and [D] the largest domain among its variables; the
    count bounds the normalized DNF's variables from above, so the
    unnormalized clauses give a sound (if looser) bound.  [0.] when [clauses] has no literal (the exact
    constants 0 and 1); [infinity] past the lemma's range.  The same [w]
    widens the {!vacuous_interval} of a value that is not exact; an exact
    value's point interval is not widened. *)

val size : t -> int
(** Distinct DAG nodes (diagnostics): a shared sub-DNF counts once, and a
    DNF that compiles exactly is one constant node. *)

val sampled_dnf : t -> Dnf.t option
(** The one problem a non-exact value samples: its whole normalized DNF,
    freshly prepared from the lineage it keeps ({!Dnf.of_lineage}, no
    repacking).  [None] when [is_exact]. *)

val cost_cap : t -> eps:float -> delta:float -> int
(** The most estimator calls {!solve} can spend on the value unbudgeted:
    the Chernoff cap of its one pass ({!Stats.karp_luby_trials} over the
    normalized DNF's clauses), [0] when exact or when its bracket already
    certifies ε ({!solve_lane} answers those with no trial). *)

type outcome = {
  value : float;
      (** the (ε, δ) estimate — exact when the DAG is, within relative ε
          for certain when the bracket certifies it; always inside
          [[lo, hi]] *)
  trials : int;
      (** estimator calls spent sampling; [0] when exact or certified *)
  residual_mass : float;
      (** the share of the reported probability that rests on sampling:
          [0] when exact, [value − lo] when certified (the share the
          compiled floor does not cover), [value] when sampled;
          [1 − residual_mass/value] is the per-tuple exact fraction. *)
  lo : float;
  hi : float;
      (** a sound probability interval for the tuple confidence: the
          sampling pass's certified interval intersected with the
          {!vacuous_interval}, cut to [[0, 1]].  It holds except with the
          claim's δ.  Degenerates to a point when exact; never wider than
          the {!vacuous_interval}. *)
  claim : Guarantee.t;
      (** what the value claims: [Exact] when the DAG is;
          [Certain ((hi − lo)/(hi + lo) + 2⁻⁴⁹)] when the bracket
          certifies ε, the [2⁻⁴⁹] covering the float rounding of the
          estimate and of the ratio; the pass's claim
          ({!Karp_luby.partial}) when sampled — [Sampled {ε; 2δ}] when it
          completes, as the stopping rule and its Chernoff cap may each
          fail with δ (the tier-1 miss-rate test measures about δ); and
          [Bracket] when sampling died outright.  The requested (ε, δ)
          contract was met iff it {!Guarantee.meets}
          [Guarantee.pass ~eps ~delta]. *)
}

val apriori : t -> outcome
(** The zero-trial answer, built once by {!compile}: the exact point, or
    else the {!vacuous_interval} with its floor as the estimate and a
    [Bracket] claim. *)

val vacuous_interval : t -> float * float
(** The a-priori bracket on the tuple confidence, free of any sampling:
    the monotone DAG evaluated with every residual at 0 (the exact
    compiled mass — a hard floor) and at its full mass [min(1, Mᵢ)], then
    widened outward by the rounding lemma above, so it holds for the exact
    (rational) confidence, cut to [[0, 1]].  A point when [is_exact].
    Computed once, by {!compile}. *)

val solve : ?budget:Budget.t -> Rng.t -> t -> eps:float -> delta:float -> outcome
(** {e Certificate}: when the {!vacuous_interval} [[lo, hi]] has [lo > 0]
    (a normal float) and [(hi − lo)/(hi + lo) + 2⁻⁴⁹ ≤ ε] (so [hi·(1 − ε) ≤ lo·(1 + ε)]),
    the answer needs no sampling.  The estimate is the harmonic mean
    [2·lo·hi/(lo + hi)], clamped into [[lo, hi]], which is within relative
    [(hi − lo)/(hi + lo)] of every point of the bracket; the outcome has
    [trials = 0], a [Certain] claim and the bracket as [lo, hi].  No
    budget is charged or consulted and no generator is asked for, so the
    certificate holds with certainty, under any budget.

    Otherwise make one {!Karp_luby.adaptive_partial} pass at (ε, δ) over
    the whole normalized DNF ({!sampled_dnf}): the result is within
    relative ε of the tuple confidence with probability ≥ 1 − 2δ as
    proven (see {!Karp_luby}), and deterministic per RNG state.

    {e Degradation}: an estimator failure is contained — the tuple comes
    back with its {!vacuous_interval}, the floor as its estimate, and a
    [Bracket] claim.  A [budget] never changes the schedule, only cuts
    it: the pass charges the shared governor and stops at exhaustion,
    reporting the interval its partial trials certify.  So a budget that
    never binds changes no bit, and without one the claim is
    [Guarantee.pass ~eps ~delta] whenever the value samples.
    @raise Invalid_argument when [eps <= 0] or [delta <= 0]. *)

val solve_lane :
  ?budget:Budget.t -> (unit -> Rng.t) -> t -> eps:float -> delta:float ->
  outcome
(** {!solve} with its generator asked for only when the value samples, that
    is when it is not exact and its bracket does not certify ε: an exact
    or certified value never calls [lane].  A batch
    whose tuples own one {!Rng.lane} each builds it here and nowhere else,
    so its tuples that compile exactly pay for no generator, and the
    outcome is bit-identical to {!solve} on the materialized lane. *)
