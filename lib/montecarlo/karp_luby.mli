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

    Without a budget, {!adaptive_partial} answers with [p̂] such that
    [Pr(|p̂ − p| ≥ ε·p) ≤ δ].  For [ε ≥ ½] one stopping-rule phase runs;
    below that, a two-phase AA-style schedule: a rough stopping-rule
    estimate at ε₁ = ½ (δ/2), then a fresh Chernoff batch sized by the
    estimated mean (δ/2).  Every phase is capped at its fixed-budget
    equivalent, so the trial count never exceeds roughly the non-adaptive
    cost and the guarantee holds on the capped path too.  Deterministic
    given the RNG state.  Trial counts saturate at [max_int], so at tiny ε
    an unbudgeted call is honest but unbounded. *)

(** {1 Budget-governed estimation}

    When a {!Budget} is supplied, sampling stops the moment the governor is
    exhausted and the result reports what the trials spent so far certify:
    a sound probability interval [[p_lo, p_hi]] and the achieved relative
    error [p_eps] at the requested confidence δ. *)

type partial = {
  p_estimate : float;  (** point estimate (0 when no trial ran) *)
  p_lo : float;        (** certified lower bound, in [0, 1] *)
  p_hi : float;        (** certified upper bound, ≤ min(1, M) *)
  p_trials : int;      (** estimator calls actually spent *)
  p_eps : float;
      (** achieved relative error at confidence δ: the requested ε when
          complete, [√(3·|F|·ln(2/δ)/n)] after [n] partial trials,
          [infinity] when the interval is vacuous, 0 when exact *)
  p_complete : bool;   (** the requested (ε, δ) contract was met *)
}

val adaptive_partial :
  ?budget:Budget.t -> Rng.t -> Dnf.t -> eps:float -> delta:float -> partial
(** Without a budget this runs the adaptive schedule above and always
    returns [p_complete = true].  With a budget it runs a single DKLR
    stopping-rule phase at (ε, δ), charging one trial at a time and polling
    {!Budget.exhausted}; on exhaustion the partial-trial
    Chernoff inversion above yields the interval (vacuous [0, min(1, M)]
    when nothing can be said).  Degenerate and single-clause DNFs are
    answered exactly with a point interval and 0 trials either way.
    @raise Invalid_argument when [eps <= 0] or [delta <= 0]. *)
