(** Closed-form error bounds for whole-query approximation
    (Proposition 6.6 / Theorem 6.7).

    With σ̂ nesting depth [d], maximum conf-argument width / arity [k],
    active-domain size [n], round budget [l] and floor [ε₀], a tuple without
    singularities in its provenance errs with probability at most
    [k·d·n^(k·d)·δ′(ε₀, l)], where [δ′(ε, l) = 2·exp(−l·ε²/3)]. *)

val proposition_6_6 :
  k:int -> d:int -> n:int -> eps0:float -> rounds:int -> float
(** The bound above (capped at 1). *)

val recurrence : k:int -> n:int -> d:int -> per_level:float -> float
(** The solved recurrence [μ_d = k·x + n^k·μ_{d-1}] with [μ_0 = 0] and
    [x = per_level]: [k·x·Σ_{i<d} n^(k·i)] (capped at 1).  Exposed so tests
    can confirm {!proposition_6_6} dominates it. *)

val rounds_for_guarantee :
  k:int -> d:int -> n:int -> eps0:float -> delta:float -> int
(** Least [l] making {!proposition_6_6} at most [delta] — the [l₀] of
    Theorem 6.7 (alias of {!Pqdb_numeric.Stats.theorem_6_7_rounds}). *)
