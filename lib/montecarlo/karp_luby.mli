(** The Karp-Luby FPRAS for confidence computation (Section 4,
    Proposition 4.2).

    Running the estimator [m] times and averaging gives
    [p̂ = X·M/m] with [Pr(|p̂ − p| ≥ ε·p) ≤ 2·exp(−m·ε²/(3·|F|))]; choosing
    [m = ⌈3·|F|·ln(2/δ)/ε²⌉] ({!Stats.karp_luby_trials}) yields an (ε, δ)
    guarantee.  That fixed-budget run is {!Estimator.batch} followed by
    {!Estimator.estimate}; this module is the adaptive, budget-aware
    sampler every production path calls. *)

open Pqdb_numeric

(** {1 Adaptive stopping (Dagum–Karp–Luby–Ross)}

    The fixed Chernoff budget [3·|F|·ln(2/δ)/ε²] provisions for the
    worst-case mean [μ = p/M ≥ 1/|F|].  The optimal-stopping approach of
    Dagum, Karp, Luby and Ross ("An optimal algorithm for Monte Carlo
    estimation") instead spends [O(ln(1/δ)/(ε²·μ))] expected trials — the
    win is a factor of [|F|·μ], which on real lineage (few deeply
    overlapping clauses) is most of the budget.

    {!adaptive_partial} runs one stopping-rule pass at (ε, δ) and answers
    with [p̂] within relative ε of [p].  The pass is capped at the fixed
    Chernoff count, so it never costs more than the non-adaptive run; at
    the cap the answer is the plain sample mean.  The stopping rule alone
    fails with probability ≤ δ, and so does the capped mean alone, so the
    proven bound is [Pr(|p̂ − p| ≥ ε·p) ≤ 2δ], the δ of the pass's claim
    ({!Guarantee.pass}); the tier-1 miss-rate test
    measures about δ, the capped branch included (ROADMAP item B).
    Deterministic given the RNG state.  Trial counts saturate at
    [max_int], so at tiny ε an unbudgeted call is honest but unbounded. *)

(** {1 Budget-governed estimation}

    A {!Budget} never changes the schedule; it only stops it early.  The
    pass polls the governor before every trial, so a budget that never
    binds changes no bit of the result.  When it does cut the pass, the
    result reports what the trials spent so far certify: a sound
    probability interval [[p_lo, p_hi]] and its claim. *)

type partial = {
  p_estimate : float;  (** point estimate (0 when no trial ran) *)
  p_lo : float;        (** certified lower bound, in [0, 1] *)
  p_hi : float;        (** certified upper bound, ≤ min(1, M) *)
  p_trials : int;      (** estimator calls actually spent *)
  p_claim : Guarantee.t;
      (** [Exact] for a point; [Guarantee.pass ~eps ~delta] when the pass
          reaches its target or its cap; after [n] cut trials
          [Guarantee.pass ~eps:ε′ ~delta] with [ε′ = √(3·|F|·ln(2/δ)/n)]
          when [ε′ < 1], and [Sampled {ε′; 1}] (no probabilistic claim)
          otherwise; [Bracket] when the budget cut the pass before its
          first trial.  The requested contract was met iff the claim
          {!Guarantee.meets} [Guarantee.pass ~eps ~delta]. *)
}

val adaptive_partial :
  ?budget:Budget.t -> Rng.t -> Dnf.t -> eps:float -> delta:float -> partial
(** One DKLR stopping-rule pass at (ε, δ), charging [budget] one trial at
    a time and polling {!Budget.exhausted}.  A pass that reaches its target
    or its cap claims {!Guarantee.pass}; one the budget cuts returns the
    partial-trial Chernoff inversion above (vacuous [0, min(1, M)] when
    nothing can be said).  The estimate is clamped into its interval on
    every path.  Degenerate and single-clause DNFs are answered exactly
    with a point interval and 0 trials.
    @raise Invalid_argument when [eps <= 0] or [delta <= 0]. *)
