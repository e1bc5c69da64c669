(** Seeded random number generation for reproducible Monte-Carlo runs.

    A thin layer over [Random.State] adding the discrete distributions the
    Karp-Luby estimator needs: weighted choice over a cumulative table, and
    Bernoulli draws.  Every experiment in the bench harness threads an
    explicit [Rng.t] so that runs are reproducible bit-for-bit. *)

type t

val create : seed:int -> t
val split : t -> t
(** A fresh generator deterministically derived from (and advancing) the
    parent — used to give independent streams to independent estimators. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] fresh generators derived deterministically from the
    parent's current state (which advances once): for a fixed parent state the
    children's streams are reproducible and pairwise independent.  This is how
    parallel Karp-Luby gives each worker its own stream while staying
    bit-deterministic for a fixed (seed, worker count).
    @raise Invalid_argument when [n <= 0]. *)

(** {1 Lanes on demand}

    The lanes a {!split_n} would return, built one at a time.  Drawing
    [lanes t n] advances the parent exactly as [split_n t n] does (two
    [bits] draws), and [lane l i] is a generator whose stream equals
    [(split_n t n).(i)] from the same parent state.  A batch whose tuples
    mostly resolve without sampling draws its lanes once and builds only
    the lanes of the tuples that sample: the answer is the same, bit for
    bit, and every lane built is fresh, so it needs no {!copy}. *)

type lanes

val lanes : t -> int -> lanes
(** [lanes t n] fixes [n] lanes from the parent's current state, advancing
    it by the two draws {!split_n} makes.
    @raise Invalid_argument when [n <= 0]. *)

val lane : lanes -> int -> t
(** [lane l i] builds lane [i] afresh: each call returns a new generator at
    the start of the lane's stream.
    @raise Invalid_argument unless [0 <= i < n]. *)

val copy : t -> t
val int : t -> int -> int
(** Uniform on [\[0, bound)]. *)

val float : t -> float -> float
(** Uniform on [\[0, bound)]. *)

val float_range : t -> float -> float -> float
(** Uniform on [\[lo, hi\]]. *)

val bool : t -> bool
val bernoulli : t -> float -> bool
(** [bernoulli rng p] is true with probability [p] (clamped to [0,1]). *)

(** {1 Weighted discrete choice} *)

module Discrete : sig
  type dist
  (** A discrete distribution over indices [0..n-1] prepared for O(log n)
      sampling via a cumulative-sum table. *)

  val of_weights : float array -> dist
  (** @raise Invalid_argument if weights are negative or all zero. *)

  val total : dist -> float
  val sample : t -> dist -> int
  val size : dist -> int
end

(** {1 Walker alias method}

    O(1)-per-draw weighted choice (two uniforms and two array reads),
    against {!Discrete}'s O(log n) cumulative search.  Preparation is O(n).
    This is the sampler on the Karp-Luby hot path: W-table domains and DNF
    clause distributions are drawn millions of times per confidence batch. *)

module Alias : sig
  type dist

  val of_weights : float array -> dist
  (** @raise Invalid_argument if weights are negative or all zero. *)

  val total : dist -> float
  (** Sum of the input weights. *)

  val sample : t -> dist -> int
  val size : dist -> int
end
