(** Descriptive statistics and the Chernoff-bound bookkeeping used throughout
    Sections 4–6 of the paper.

    The naming follows the paper: an [(ε, δ)] scheme guarantees
    [Pr(|p̂ − p| >= ε·p) <= δ]; for the Karp-Luby estimator run for [m] trials
    over a DNF of [s] clauses, [δ(ε) = 2·exp(−m·ε²/(3s))]. *)

(** {1 Descriptive statistics} *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (n−1 denominator); 0 for arrays shorter than 2. *)

val median : float array -> float
(** Does not mutate its argument. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [0 <= q <= 1], linear interpolation. *)

val min_max : float array -> float * float

(** {1 Chernoff / Karp-Luby bounds} *)

val karp_luby_delta : trials:int -> clauses:int -> eps:float -> float
(** [δ(ε) = 2·exp(−m·ε²/(3·|F|))] — the error-probability bound after
    [trials] estimator calls on a DNF with [clauses] disjuncts (Section 4). *)

val karp_luby_eps : trials:int -> clauses:int -> delta:float -> float
(** [ε(δ) = √(3·|F|·ln(2/δ)/m)] — the inverse of {!karp_luby_delta}: the
    relative error [trials] estimator calls certify at confidence δ. *)

val karp_luby_trials : clauses:int -> eps:float -> delta:float -> int
(** [m = ⌈3·|F|·ln(2/δ)/ε²⌉] — trials for an (ε,δ) guarantee (Section 4),
    saturated at [max_int]. *)

val count_of_float : float -> int
(** [⌈x⌉] for a non-negative trial count, saturated at [max_int] instead of
    wrapping. *)

val saturating_add : int -> int -> int
(** [a + b] for non-negative counts, saturated at [max_int]. *)

val delta' : eps:float -> rounds:int -> float
(** [δ′(ε, l) = 2·exp(−l·ε²/3)] — the balanced per-value bound used by the
    Figure-3 algorithm, where [l] counts outer-loop rounds (each round runs
    [|F_i|] estimator calls per value). *)

val rounds_for : eps:float -> delta:float -> int
(** Least [l] with [δ′(ε, l) <= delta]: [l = ⌈3·ln(2/δ)/ε²⌉]. *)

val theorem_6_7_rounds :
  eps0:float -> delta:float -> k:int -> d:int -> n:int -> int
(** [l₀ >= 3·ln(2·k·d·n^(k·d)/δ)/ε₀²] — the round budget that makes the whole
    query approximation of Theorem 6.7 sound, given maximum arity/selection
    width [k], σ̂ nesting depth [d] and active-domain size [n]. *)

val independent_or_bound : float list -> float
(** [1 − Π(1 − δᵢ)] — the tighter union bound of Lemma 5.1's remark for
    independent approximations (e.g. separate Karp-Luby runs); always at most
    [Σ δᵢ].  Inputs are clamped to [0, 1]. *)

(** {1 Error-rate measurement helpers} *)

type error_tally = { mutable trials : int; mutable errors : int }

val tally : unit -> error_tally
val record : error_tally -> bool -> unit
(** [record t ok] counts a trial, and an error when [ok] is false. *)

val error_rate : error_tally -> float
