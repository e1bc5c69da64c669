(** The predicate-approximation algorithm of Figure 3 (Theorem 5.8).

    Given DNFs [F₁, …, Fₖ] (one per approximable value), a floor [ε₀ > 0]
    and a target error [δ], the algorithm interleaves rounds of [|Fᵢ|]
    Karp-Luby estimator calls per value with re-computation of
    [ε = max(ε₀, ε_ψ(p̂₁, …, p̂ₖ))] (where ψ is [φ] or [¬φ] according to the
    current estimates), stopping as soon as [Σᵢ δᵢ(ε) ≤ δ].  Away from
    ε₀-singularities the returned truth value is wrong with probability at
    most δ; the naive alternative always pays the full [ε₀] sample budget
    (the measured speedup is experiment E7). *)

open Pqdb_numeric
open Pqdb_montecarlo

type decision = {
  value : bool;  (** [φ(p̂₁, …, p̂ₖ)] at termination *)
  error_bound : float;  (** [min(0.5, Σᵢ δᵢ(ε))] at termination *)
  epsilon : float;  (** the final [ε] *)
  rounds : int;  (** outer-loop iterations executed *)
  estimator_calls : int;  (** total Karp-Luby estimator invocations *)
  estimates : float array;  (** final [p̂ᵢ] *)
  hit_round_limit : bool;
      (** true when [max_rounds] stopped the loop before the bound was met *)
  used_floor : bool;
      (** true when the final round's [ε_ψ(p̂)] was below [ε₀], i.e. the
          stopping condition was met only thanks to the ε₀ floor: by
          Theorem 5.8 the reported bound is then valid {e only if} the true
          point is not an ε₀-singularity — the singularity-suspicion signal
          used by query evaluation.  {!decide} also sets it when [ε_ψ(p̂)]
          does not exceed the largest relative rounding bound of its
          compiled values: the truth may then lie across the boundary from
          the floats, even at error bound 0. *)
}

val decide_values :
  ?budget:Pqdb_montecarlo.Budget.t ->
  ?eps0:float ->
  ?max_rounds:int ->
  ?search_iterations:int ->
  ?batch:int ->
  ?independent:bool ->
  rng:Rng.t ->
  delta:float ->
  Pqdb_ast.Apred.t ->
  Approximable.t array ->
  decision
(** Run Figure 3 over abstract {!Approximable} values — the generalization
    the end of Section 5 claims ("…may conceivably extend to areas such as
    online aggregation"): any (ε, δ)-refinable value can feed the
    predicate, e.g. sampled aggregates alongside tuple confidences.  This
    is the only Figure-3 loop; {!decide} runs it over Karp-Luby estimators.

    [eps0] defaults to 0.05; [max_rounds] (default: no limit) caps the
    outer loop for use by the Theorem 6.7 doubling driver, reporting the
    error bound achieved so far.  [batch] overrides the per-round
    refinement ({!Approximable.refine_by} that many steps instead of
    {!Approximable.refine}: the paper batches [|Fᵢ|] calls per value per
    round; experiment E14 ablates this).  [independent] (default false,
    matching Figure 3's [Σᵢ δᵢ(ε)]) switches the combined bound to the
    tighter [1 − Πᵢ(1 − δᵢ(ε))] that Lemma 5.1's remark justifies for
    independent runs.  The values keep their accumulated refinement, so
    successive calls refine rather than restart.  [budget] (default: none)
    makes the decision anytime: every round charges the shared
    {!Pqdb_montecarlo.Budget} with its refinement steps and, once it is
    exhausted, the decision is made with the steps accumulated so far and
    flagged [hit_round_limit = true], so callers treat it as a suspect.
    @raise Invalid_argument when [delta <= 0], [eps0] is outside (0, 1),
    [batch < 1] (a round would draw nothing, so without [max_rounds] the
    loop would never stop), or the predicate mentions more variables than
    there are values. *)

val decide :
  ?budget:Pqdb_montecarlo.Budget.t ->
  ?eps0:float ->
  ?max_rounds:int ->
  ?search_iterations:int ->
  ?batch:int ->
  ?independent:bool ->
  ?compile_fuel:int ->
  rng:Rng.t ->
  delta:float ->
  Pqdb_ast.Apred.t ->
  Estimator.t array ->
  decision
(** Figure 3 itself over {e approximable} values (Section 5): each
    estimator's lineage is compiled once, from its DNF's canonical value
    ({!Lineage.of_packed} of {!Dnf.packed}, then {!Compile.of_lineage}),
    at [compile_fuel] (default {!Compile.default_fuel}, as in
    {!Topk.run}).
    {ul
    {- A value that compiles exactly enters as {!Approximable.constant}
       and its estimator draws nothing;}
    {- a value that does not stays {!Approximable.of_karp_luby}, one round
       being [|Fᵢ|] Karp-Luby estimator calls, and its estimator keeps its
       accumulated trials.}}
    A decision whose values are all exact takes 0 rounds and has error
    bound 0.  A compiled float is only within
    {!Compile.rounding_bound} of the rational confidence, so [ε_ψ(p̂)] is
    computed even then, and a decision whose [ε_ψ(p̂)] does not exceed the
    largest relative rounding bound [w/p̂] is flagged [used_floor].

    [~compile_fuel:0] compiles nothing: {!decide_values} over
    [Array.map Approximable.of_karp_luby estimators], bit for bit the
    sampled Figure 3 (degenerate DNFs are exact as always).
    @raise Invalid_argument as {!decide_values}, or when [compile_fuel] is
    negative. *)

val decide_naive :
  ?eps0:float ->
  rng:Rng.t ->
  delta:float ->
  Pqdb_ast.Apred.t ->
  Estimator.t array ->
  decision
(** The baseline sketched before Theorem 5.8: sample every value to the full
    (ε₀, δ/k) budget up front, then evaluate the predicate once.  Used by the
    E7 benchmark as the comparison point. *)
