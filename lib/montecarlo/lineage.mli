(** The one lineage decomposer, in the spirit of Koch & Olteanu's ws-tree
    decompositions: normalization plus the policy that decides how a clause
    set splits.  Two consumers recurse on it — {!exact} over rationals (the
    exact [conf] of Theorem 3.4) and {!Compile.compile} over floats with
    bounded Shannon fuel (the approximate path of Section 4).

    A DNF here is a list of {!Pqdb_urel.Assignment} clauses over the
    independent W-table variables; its probability is the weight of the union
    of the clauses' world sets. *)

open Pqdb_urel

val normalize : Assignment.t list -> Assignment.t list
(** Deduplicate (structural equality), collapse to [[Assignment.empty]] when
    some clause is empty (trivially true), and drop subsumed clauses: [b] is
    redundant when some other clause [a] has [Assignment.subsumes a b].
    Subsumption is skipped above an internal size cap (quadratic pass); the
    result is then still equivalent, just possibly redundant. *)

type step =
  | Independent of Assignment.t list list
      (** Two or more variable-connected components (union-find over the
          clauses' variables, in first-occurrence order).  They mention
          pairwise-disjoint variable sets, so they are independent events:
          [P(⋁ components) = 1 − Π (1 − Pᵢ)]. *)
  | Disjoint of Wtable.var
      (** A variable bound in {e every} clause (smallest id when several).
          Expanding on it is free — each branch strictly shrinks all
          surviving clauses — and the branches are mutually disjoint
          events. *)
  | Shannon of Wtable.var
      (** The variable occurring in the most clauses (smallest id on ties):
          the DPLL-style pivot of a Shannon step, [P = Σₓ P(v = x)·P(F | v = x)]. *)

val split : Assignment.t list -> step
(** The one decomposition policy, tried in the order listed: independent
    components, then a free disjoint expansion, then a Shannon step.
    Callers normalize first and answer the empty and single-clause sets
    themselves — the compiler charges its fuel between those two stages.
    A pure function of the clause set, so compilation is deterministic.
    @raise Invalid_argument when no clause binds a variable. *)

val condition : Assignment.t list -> Wtable.var -> int -> Assignment.t list
(** [condition cs v x]: the residual DNF under [v = x] — clauses demanding
    another value drop, the binding on [v] is removed from the rest. *)

val exact : Wtable.t -> Assignment.t list -> Pqdb_numeric.Rational.t
(** Exact confidence (the #P-hard operation of Theorem 3.4): normalize,
    then recurse on {!split} with rational arithmetic and no fuel bound.
    Still exponential in the worst case, as it must be, but independent
    components and free disjoint expansions keep structured lineage
    polynomial.  {!Compile.compile} walks the same policy over floats. *)
