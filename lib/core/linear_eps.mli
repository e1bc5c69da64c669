(** The closed-form maximal ε for linear inequalities — Theorem 5.2.

    Given a predicate [Σ aᵢxᵢ ≥ b] satisfied at the approximated point
    [(p̂₁, …, p̂ₖ)], the largest ε such that the whole relative orthotope
    [Π\[p̂ᵢ/(1+ε), p̂ᵢ/(1−ε)\]] satisfies the predicate is

    - [ε = α/β] when [b = 0], and
    - otherwise the root of [(β ± √(β² − 4b(α−b)))/(2b)] lying in [\[0, 1)]
      (the paper says "the larger root", which is an erratum: when every
      [aᵢp̂ᵢ] shares one sign the larger root is the spurious [ε = 1] — the
      feasibility of the orthotope is monotone in ε, so the unique root below
      1, or unboundedness, is the right answer),

    where [α = Σ aᵢp̂ᵢ] and [β = Σ |aᵢp̂ᵢ|].  A result of 0 signals that the
    point lies on the separating hyperplane (Remark 5.3); results ≥ 1 are
    clamped just below 1 since Lemma 5.1 requires [ε < 1]. *)

type linear = { coeffs : float array; constant : float }
(** The affine form [Σ coeffs.(i)·xᵢ + constant]. *)

val eps_max : float
(** The clamp value just below 1 (Remark 5.3). *)

val of_expr : arity:int -> Pqdb_ast.Apred.expr -> linear option
(** Extract an affine form from an expression, if it is affine: variables,
    constants, +, -, unary negation, multiplication/division where one side
    is variable-free.  [None] for genuinely non-linear expressions. *)

val eval : linear -> float array -> float

val theorem_5_2 : linear -> float array -> float
(** [theorem_5_2 l p̂] is the maximal ε for the inequality [l(x) ≥ 0],
    {e assuming} [l(p̂) ≥ 0] (callers orient the inequality first).  Returns
    0 on the hyperplane, {!eps_max} when the inequality is invariant on every
    relative orthotope around [p̂] (all effective coefficients [aᵢp̂ᵢ]
    vanish). *)

val prepare_atom :
  arity:int ->
  Pqdb_ast.Apred.comparison ->
  Pqdb_ast.Apred.expr ->
  Pqdb_ast.Apred.expr ->
  (float array -> float) option
(** [prepare_atom ~arity cmp lhs rhs] builds the atom's affine form once and
    returns the maximal homogeneity ε for the atom {e at its current truth
    value} as a function of the point (of at least [arity] coordinates): a
    true atom's ε bounds the region where it stays true; a false atom's
    where it stays false.  Equality atoms at points that satisfy them yield
    0 (they cannot be approximated, Example 5.7).  [None] when either side
    fails linear extraction. *)
