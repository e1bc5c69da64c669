(** Abstract approximable values — the generalization Section 5 claims.

    The predicate-approximation machinery only needs, per value, a way to
    {e refine} the estimate and an error bound [δᵢ(ε)] as a function of the
    relative width ε ("the applicability of the results of this section is
    not restricted to approximate values obtained by the Karp-Luby algorithm
    … but may conceivably extend to areas such as online aggregation").
    This module packages that interface and provides three instances:

    - {!of_karp_luby}: tuple-confidence values backed by the incremental
      Karp-Luby estimator (the paper's instance);
    - {!of_sampler}: the mean of a finite population estimated by sampling
      with replacement, with a Hoeffding bound — the online-aggregation
      instance.  Hoeffding bounds absolute error, so a positive lower bound
      on the true mean converts it to the relative regime Figure 3 needs:
      [δ(ε) = 2·exp(−2·n·(ε·lb)²/range²)];
    - {!constant}: an exactly-known value (zero error). *)

open Pqdb_numeric

type t

val refine : Rng.t -> t -> unit
(** One refinement round (the instance picks its natural batch: [|F|]
    estimator calls for Karp-Luby, one batch of draws for the sampler). *)

val refine_by : Rng.t -> t -> int -> unit
(** Exactly [n] elementary refinement steps. *)

val estimate : t -> float
val steps : t -> int
(** Elementary refinement steps performed so far. *)

val delta_bound : t -> eps:float -> float
(** [δᵢ(ε)] given the refinement so far; 1 before any step, 0 for exactly
    known values. *)

val is_exact : t -> bool

val of_karp_luby : Pqdb_montecarlo.Estimator.t -> t
val constant : float -> t

val of_sampler :
  ?batch:int -> lower_bound:float -> values:float array -> unit -> t
(** Mean of [values] by uniform sampling with replacement.  [lower_bound]
    must be a positive lower bound on the true mean (it calibrates the
    relative-error bound); [batch] is the draws per round (default 16).
    @raise Invalid_argument on an empty population, a non-positive lower
    bound, a [batch] below 1 (a round would draw nothing, so Figure 3
    would never stop), or a zero-width range (use {!constant}). *)
