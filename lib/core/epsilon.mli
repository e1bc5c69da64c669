(** The ε_φ computation of Section 5: the homogeneity radius of a predicate's
    truth value at an approximated point.

    Atoms that are linear inequalities get the exact closed form of
    Theorem 5.2; other atoms fall back to the Theorem 5.5 corner-point binary
    search (requiring each variable to occur at most once {e in that atom}).
    Boolean structure composes truth-directed:

    - a true conjunction is homogeneous while {e both} conjuncts stay true
      (min); a false one while {e some} false conjunct stays false (max over
      the false conjuncts);
    - dually for disjunction.

    This coincides with the paper's min/max rules on NNF inputs whose
    subformulas share the root's truth value, and extends them soundly to
    mixed-truth subformulas. *)

exception Unsupported of string
(** Raised for non-linear atoms in which some variable occurs more than once
    — rewrite with {!split_duplicates} first (Section 5's independent-copies
    trick). *)

val epsilon :
  ?search_iterations:int -> Pqdb_ast.Apred.t -> float array -> float
(** [epsilon φ p̂]: homogeneity radius of [φ]'s truth value at [p̂], in
    [\[0, {!Linear_eps.eps_max}\]].  0 means the point sits on a decision
    boundary (a singularity if the true point does too).  {!prepare}
    applied once. *)

val prepare :
  ?search_iterations:int -> Pqdb_ast.Apred.t -> float array -> float
(** [prepare φ] builds every atom's affine form (or its Theorem 5.5
    fallback) once and returns [fun p̂ -> epsilon φ p̂]: the function the
    Figure-3 loop calls every round.  A non-linear atom with a repeated
    variable raises {!Unsupported} when its ε is first needed, as
    {!epsilon} does. *)

val split_duplicates : Pqdb_ast.Apred.t -> Pqdb_ast.Apred.t * int array
(** [split_duplicates φ = (φ', origin)]: every occurrence of a variable
    beyond its first gets a fresh variable index; [origin.(j)] is the original
    variable behind (possibly fresh) variable [j].  Approximating each copy
    independently restores the single-occurrence precondition at a small cost
    in efficiency, as the paper prescribes. *)
