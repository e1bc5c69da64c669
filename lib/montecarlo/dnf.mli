(** A DNF of partial assignments prepared for Karp-Luby sampling.

    [F = {f₁, …, fₛ}] is the set of conditions of one tuple in a U-relation;
    the tuple's confidence is the total weight of worlds covered by at least
    one clause.  Preparation fixes the clause order (Definition 4.1 breaks
    ties by smallest index), computes [M = Σ p_f], and builds the sampling
    tables. *)

open Pqdb_numeric
open Pqdb_urel

type t

val prepare : Wtable.t -> Assignment.t list -> t
(** The list packed by {!Lineage.pack}: clause order is the list order,
    duplicates included. *)

val of_lineage : Wtable.t -> Lineage.t -> t
(** The canonical clauses, in their canonical order, with no repacking. *)

val wtable : t -> Wtable.t
(** The W table the DNF was prepared against. *)

val packed : t -> Lineage.packed
(** The clauses in sampling order over the sorted table of the variables
    they bind: what σ̂ normalizes ({!Lineage.of_packed}) and compiles. *)

val clause_count : t -> int
(** [|F|] — the FPRAS trial counts scale linearly in it. *)

val total_weight : t -> float
(** [M = Σ_f p_f]. *)

val is_trivially_false : t -> bool
(** No clauses: confidence 0. *)

val is_trivially_true : t -> bool
(** Contains the empty clause: confidence 1. *)

val sample_estimator : Rng.t -> t -> int
(** One Karp-Luby trial (Definition 4.1): draw a clause [f] proportionally to
    [p_f], extend it to a total assignment [f*] by sampling the unassigned
    variables from W, and return 1 iff [f] is the smallest-index clause
    consistent with [f*].  The result is an unbiased estimator of [p/M].

    Draw order, which fixes every sampled bit for a seed: one alias draw
    for the clause, then one W-alias draw for each DNF variable [f] leaves
    unbound, in ascending variable id; the consistency check draws nothing.
    The prepared DNF is only read, so several domains may sample it at once.
    Allocates a fresh scratch world per call; a loop of trials uses
    {!scratch} and {!trial} instead.
    @raise Invalid_argument on a trivially false DNF. *)

type world
(** A scratch total assignment [f*]: one value per DNF variable. *)

val scratch : t -> world
(** A world for {!trial} on this DNF.  The contract: one world per pass
    (a batch of trials run by one caller on one domain), allocated before
    the pass and dropped after it.  A world is mutable scratch, so it is
    never shared across domains or between passes that may interleave;
    the prepared DNF itself stays read-only and shareable. *)

val trial : Rng.t -> t -> world -> int
(** {!sample_estimator} writing [f*] into [world] (which must come from
    {!scratch} on the same DNF) instead of a fresh array: the same draws in
    the same order and the same result, with no allocation beyond the RNG
    draws.  Every slot is overwritten before it is read, so the world
    carries nothing from one trial to the next.
    @raise Invalid_argument on a trivially false DNF. *)

val exact : t -> Rational.t
(** Exact confidence ({!Lineage.exact}); for tests and error
    measurement. *)
