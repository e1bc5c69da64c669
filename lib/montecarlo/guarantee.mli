(** What an approximate answer claims, and the one place a failure
    probability δ is split.

    Every answer the engine prints is a value inside a bracket [[lo, hi]]
    plus a claim about how far the value may sit from the truth.  The
    claims compose: the conditioning layer combines up to four solves
    through {!difference} and {!ratio}, top-k takes the {!union} of its
    candidates' intervals, and every caller that spends one δ over [n]
    claims asks {!split} for each share, so the union bound behind each
    answer is written down once.

    Where each path's claim comes from (DESIGN.md, "Guarantees"):
    {ul
    {- a compiled value with no residual is [Exact];}
    {- a compiled bracket that proves relative ε makes it [Certain ε];}
    {- one Karp–Luby pass at (ε, δ) is {!pass}: [Sampled {ε; 2δ}], as
       its stopping rule and its Chernoff cap may each fail with δ;}
    {- a dead sampler and a pass cut before its first trial keep only
       their a-priori bracket: [Bracket].  So does a tuple of a
       quarantined shard, which gets no claim at all; its
       {!Shard.outcome} reports the relative ε its bracket's floor is
       proven to, [(hi − lo)/hi].}} *)

type t =
  | Exact  (** the value is the answer: a point bracket *)
  | Certain of float
      (** within relative ε, with certainty: a bracket proves it *)
  | Sampled of { eps : float; delta : float }
      (** within relative ε except with total probability δ.  A δ of 1
          promises nothing beyond the bracket: a budget-cut pass whose
          trials reach only ε′ ≥ 1, where the Chernoff inversion behind ε′
          no longer holds, reports [Sampled {ε′; 1}]. *)
  | Bracket
      (** only the bracket holds, with certainty; no relative ε is
          claimed *)

val eps : t -> float
(** The relative error claimed: [0] when [Exact], [infinity] when
    [Bracket]. *)

val delta : t -> float
(** The total failure probability: [0] unless [Sampled]. *)

val split : float -> int -> float
(** [split delta n] is [δ/n], each share of [n] claims whose union bound
    is [δ].  Every δ split of the library goes through here.
    @raise Invalid_argument when [n < 1]. *)

val pass : eps:float -> delta:float -> t
(** The claim of one complete Karp–Luby pass at (ε, δ):
    [Sampled {ε; 2δ}] ({!Karp_luby.adaptive_partial}). *)

val union : t -> t -> t
(** Both claims at once: the larger ε and the summed δ (union bound);
    [Exact] only when both are, and [Bracket] when neither claims an ε or
    a δ. *)

val difference : p:float -> t -> q:float -> t -> t
(** The claim for [p − q] from a claim on [p] and one on [q] (Theorem 4.4
    writes conditioned events as such differences).  Relative error is not
    kept by subtraction: the result's ε is [(εp·p + εq·q)/(p − q)],
    [infinity] when [p <= q], strictly wider than both inputs whenever
    [q > 0].  The bound falls as [p] grows and rises with [q], so any
    lower bound on [p] and upper bound on [q] give a sound claim.  The δs
    add.  @raise Invalid_argument when [p] or [q] is negative. *)

val ratio : t -> t -> t
(** The claim for a ratio of a numerator and a denominator claim: ε is
    [(εn + εd)/(1 − εd)], [infinity] when [εd >= 1], wider than both
    inputs whenever both are positive.  The δs add. *)

val meets : t -> t -> bool
(** [meets c target]: [c] is at least as strong as [target] — an ε and a
    δ no larger, and a point where [target] is [Exact].  Whether a pass at
    (ε, δ) met its request is [meets claim (pass ~eps ~delta)]; [Bracket]
    meets no relative ε and [Exact] meets every claim. *)
