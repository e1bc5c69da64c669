(** Corner-point reasoning on relative orthotopes — Theorem 5.5.

    For a predicate [f(x₁, …, xₖ) ≥ 0] built from constants, the four
    arithmetic operations and {e at most one occurrence of each variable},
    fixing all variables but one makes the atom monotone in the remaining
    variable; hence if all [2ᵏ] corner points of the orthotope agree with the
    center on the predicate, every point of the orthotope does.  The maximal
    ε is then found by binary search (feasibility is monotone in ε because
    the orthotopes are nested). *)

val corners_agree : Pqdb_ast.Apred.t -> point:float array -> eps:float -> bool
(** Do all corners of [Π\[p̂ᵢ/(1+ε), p̂ᵢ/(1−ε)\]] evaluate like the center?
    Corners whose evaluation is not finite enough to decide (NaN from a
    division) count as disagreement. *)

val epsilon_search :
  ?iterations:int -> Pqdb_ast.Apred.t -> float array -> float
(** Largest ε up to {!Linear_eps.eps_max} (within [iterations] bisection
    steps, default 40) whose corner points all agree with the center.
    Sound as a homogeneity radius only for single-occurrence predicates
    (Theorem 5.5) — callers check {!Pqdb_ast.Apred.single_occurrence} or
    split duplicates first. *)

val homogeneous_on_samples :
  Pqdb_numeric.Rng.t ->
  Pqdb_ast.Apred.t ->
  point:float array ->
  eps:float ->
  samples:int ->
  bool
(** Monte-Carlo check that random interior points agree with the center —
    the property-test oracle for Theorem 5.5. *)
