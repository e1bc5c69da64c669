(** Probabilistic databases as explicit weighted sets of possible worlds
    (the nonsuccinct representation of Section 2 / Proposition 3.5).

    A database is a finite set of structures
    [{⟨R₁¹, …, Rₖ¹, p⁽¹⁾⟩, …, ⟨R₁ⁿ, …, Rₖⁿ, p⁽ⁿ⁾⟩}] with positive
    probabilities summing to 1, where relations marked {e complete} agree in
    every world.  Exponential-size in general — this module is the ground
    truth against which the succinct U-relational path is tested. *)

open Pqdb_numeric
open Pqdb_relational

type world = (string * Relation.t) list
(** One possible world: relation name → relation, sorted by name. *)

type t

val of_complete : (string * Relation.t) list -> t
(** Single world with probability 1; every relation complete by definition. *)

val of_worlds :
  complete:string list -> (world * Rational.t) list -> t
(** General constructor.
    @raise Invalid_argument when probabilities are non-positive or do not sum
    to 1, when worlds disagree on relation names or schemas, or when a
    relation marked complete differs between worlds. *)

val worlds : t -> (world * Rational.t) list
val relation_names : t -> string list
val world_count : t -> int
val is_complete : t -> string -> bool

val find : world -> string -> Relation.t
(** @raise Not_found on an unknown relation name. *)

val tensor : t -> t -> t
(** [⊗] of Equation (1): the product distribution over the disjoint union of
    the two databases' relations.
    @raise Invalid_argument on relation-name clashes. *)

val normalize : t -> t
(** Merge identical worlds, summing probabilities. *)

(** {1 Weighted query results}

    Evaluating a query against a pdb yields one relation per world; [prel]
    is that weighted set of possible relations, normalized (deduplicated,
    sorted) so results are comparable across evaluators. *)

type prel = (Relation.t * Rational.t) list

val normalize_prel : prel -> prel
val equal_prel : prel -> prel -> bool

val confidence : prel -> (Tuple.t * Rational.t) list
(** Marginal probability of each possible tuple:
    [Pr(t ∈ R) = Σ_{i : t ∈ Rⁱ} p⁽ⁱ⁾]. *)

val confidence_of : prel -> Tuple.t -> Rational.t
(** Zero for tuples in no world. *)

(** {1 Key repair} *)

val repair_key :
  key:string list -> weight:string -> Relation.t -> prel
(** [repair-key_{Ā@B}(R)] (Section 2): all subset-maximal relations
    satisfying the key [Ā], i.e. one tuple chosen per [Ā]-group, with
    probability proportional to the weight column [B] within each group.
    @raise Invalid_argument when a weight is not a positive number. *)
