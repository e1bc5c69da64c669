(** Brute-force exact confidence — the test oracle for the #P-hard
    operation of Theorem 3.4.

    The confidence of tuple [t̄] is the weight of the DNF
    [F = {f | ⟨f, t̄⟩ ∈ U_R}]:
    [p = Σ_{f* : ∃f ∈ F, f* ∈ ω(f)} p_{f*}] (Section 4).

    {!by_enumeration} sums over all total assignments of the variables
    mentioned by [F] — Θ(Π |Dom Xᵢ|).  Query evaluation uses the lineage
    decomposer [Pqdb_montecarlo.Lineage.exact] instead; this stays as the
    independent ground truth it is tested against. *)

open Pqdb_numeric

val by_enumeration : Wtable.t -> Assignment.t list -> Rational.t
