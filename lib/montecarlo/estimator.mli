(** Incremental Karp-Luby estimator state — the refinable values consumed by
    the Figure-3 predicate-approximation algorithm.

    The algorithm of Figure 3 interleaves batches of [|Fᵢ|] estimator calls
    per approximable value with ε recomputation; this module keeps the running
    trial count and success sum so each batch just continues the walk.  The
    current error bound after [m] trials at relative width [ε] is
    [δᵢ(ε) = 2·exp(−m·ε²/(3·|Fᵢ|))]. *)

open Pqdb_numeric

type t

val create : Dnf.t -> t
val dnf : t -> Dnf.t

val is_degenerate : t -> bool
(** Trivially true/false DNFs need no sampling and have error 0. *)

val batch : Rng.t -> t -> int -> unit
(** Run [n] more estimator calls (no-op on degenerate DNFs), drawing
    exactly what [n] calls of {!Dnf.sample_estimator} would.  The pass
    allocates one {!Dnf.scratch} world and reuses it for all [n] trials;
    the world lives only for this call, so estimators over the same
    prepared DNF may run on different domains, while one estimator (it is
    mutable) belongs to one domain at a time.
    @raise Invalid_argument when [n < 0]. *)

val step_round : Rng.t -> t -> unit
(** One Figure-3 round: [|Fᵢ|] estimator calls. *)

val trials : t -> int
val estimate : t -> float
(** Current [p̂ = X·M/m]; exact 0/1 for degenerate DNFs; 0 before any
    trial. *)

val delta_bound : t -> eps:float -> float
(** [δᵢ(ε)] after the trials so far (0 for degenerate DNFs). *)

val eps_bound : t -> delta:float -> float
(** The relative half-width certified by the trials so far at failure budget
    [delta]: [√(3|F|·ln(2/δ)/m)] — the inverse of {!delta_bound}.  [0] for
    degenerate and single-clause DNFs (they are exact), [1] before any
    trial. *)

val interval : t -> delta:float -> float * float
(** Confidence interval [[p̂/(1+ε), p̂/(1−ε)] ∩ [0, 1]] at the certified
    [ε = eps_bound t ~delta]; degenerate and single-clause DNFs give a point
    interval, and [ε ≥ 1] gives the vacuous [[0, 1]].  Used by the top-k
    engine to prune candidates without fixing trial budgets up front. *)

val trials_to_reach : t -> eps:float -> delta:float -> int
(** Additional trials needed so that [delta_bound] drops to [delta]. *)
