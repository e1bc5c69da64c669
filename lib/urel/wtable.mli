(** The W table of a U-relational database (Section 3): a finite set of
    independent discrete random variables with their distributions.

    [W(Var, Dom, P)] holds [⟨X, x, p⟩] iff [Pr(X = x) = p > 0] and the
    probabilities of each variable sum to 1.  Variables are created by
    [repair-key] during query evaluation, so the table is mutable and grows
    monotonically; variable and domain values are dense integer ids. *)

open Pqdb_numeric
open Pqdb_relational

type t
type var = int

val create : unit -> t

val add_var : ?name:string -> t -> Rational.t list -> var
(** [add_var t dist] registers a fresh variable whose domain is
    [0 .. length dist - 1] with the given probabilities.
    @raise Pqdb_runtime.Pqdb_error.Error
    ([Invalid_probability {context = "Wtable.add_var"; _}]) unless all
    probabilities are in (0, 1] and sum to 1, with at least one
    alternative. *)

val copy : t -> t
(** An independent table holding the same variables: same ids, names,
    rational and float distributions, a fresh {!uid} and the same
    {!generation}.  Nothing is re-validated — every entry was checked by
    {!add_var} when it entered the source — so a copy costs a few words per
    variable.  Alias samplers the source has already built are carried
    over (they are deterministic in the distribution, so draws are
    unchanged); a sampler built later, and every {!add_var}, touches only
    the table it is made on. *)

val uid : t -> int
(** Process-unique instance id (two tables never share one, copies
    included).  Together with {!generation} it identifies "this table in
    this state" — the W-table component of a compiled-lineage cache key. *)

val generation : t -> int
(** Monotone edit counter: bumped by every {!add_var}, kept by {!copy}.
    A cache entry keyed on [(uid, generation)] is invalidated by any table
    edit; a copy's fresh uid keeps it from matching the source's keys. *)

val var_count : t -> int
val vars : t -> var list
val name : t -> var -> string
val domain_size : t -> var -> int

val prob : t -> var -> int -> Rational.t
(** @raise Invalid_argument on an out-of-range variable or value. *)

val prob_float : t -> var -> int -> float
(** Cached float image of {!prob} for the Monte-Carlo path. *)

val alias : t -> var -> Rng.Alias.dist
(** The variable's Walker alias sampler (O(1) per draw), built on first use
    and cached on the entry, so every DNF prepared against this W table
    shares one table per variable; a {!copy} starts with the samplers built
    so far.  The cache is filled during (serial) DNF
    preparation; domains in the parallel Karp-Luby phase only read it. *)

val world_count : t -> int
(** Π domain sizes — the number of total assignments (can be huge; used by
    diagnostics and the exponential-path benchmarks). *)

val to_relation : t -> Relation.t
(** Render as the W(Var, Dom, P) relation of Figure 1. *)

val pp : Format.formatter -> t -> unit
