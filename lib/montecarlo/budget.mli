(** Resource governor for anytime confidence computation.

    A budget carries up to three cooperative limits — a wall-clock deadline,
    a total estimator-trial budget, and a cancellation flag — and is
    threaded through the sampling layers ({!Karp_luby}, {!Compile.solve},
    {!Confidence.run_stream}, top-k, predicate decisions).  Layers poll
    {!exhausted} inside their sampling loops and, on exhaustion, {e degrade
    instead of failing}: they stop sampling and report what the trials spent
    so far certify (a wider interval / a larger achieved ε), in the spirit
    of the paper's Section 6 treatment of unreliability as added
    uncertainty.

    A budget may be shared by the tuples of one call; a batch run instead
    gives each shard, then each sampling tuple of it, its own {!slice}
    and charges the trials used back.  All operations are atomic/lock-free
    and safe from worker domains.

    No-budget calls ([?budget] left [None]) take the exact pre-existing
    code paths — zero overhead, bit-identical results. *)

type t

val create : ?deadline_s:float -> ?max_trials:int -> unit -> t
(** [deadline_s] is relative wall-clock seconds from now; [max_trials]
    bounds the total estimator calls charged via {!spend}.  Omitting both
    yields a budget that only exhausts via {!cancel}.
    @raise Invalid_argument when [deadline_s <= 0] or [max_trials <= 0]. *)

val cancel : t -> unit
(** Cooperative cancellation: every subsequent {!exhausted} returns
    [true]. *)

val cancelled : t -> bool

val spend : t -> int -> unit
(** Charge [n] estimator trials against the budget. *)

val spent : t -> int
(** Total trials charged so far. *)

val remaining_trials : t -> int
(** Trials left before the trial budget exhausts ([max_int] when
    unlimited, [0] once cancelled — a cancelled budget has nothing left to
    grant whatever its cap); never negative. *)

val remaining_deadline : t -> float option
(** Wall-clock seconds until the deadline ([None] when there is none); may
    be negative once past it. *)

val exhausted : t -> bool
(** [true] once the budget is cancelled, over its trial budget, or past its
    deadline.  The deadline check is sticky: once observed expired it stays
    expired, so a loop polling [exhausted] terminates promptly. *)

val allocate : trials:int -> costs:int array -> int array
(** Apportion a trial allowance over work items proportionally to their
    costs, {e exactly}: the returned shares are non-negative and always sum
    to [trials], for every allowance up to [max_int] (largest-remainder
    method in exact arithmetic — integer floors by cost share, then the
    remainder handed out by largest fractional part, lowest index on
    ties).  When [trials >= Array.length costs] every item gets at least
    one trial; an all-zero cost vector spreads evenly.  Deterministic,
    pure — a batch run deals its shards' slices with it, and each shard
    its sampling tuples', so a slice does not depend on which process or
    domain runs it, in what order, or after which resume.
    @raise Invalid_argument on negative [trials] or any negative cost. *)

val slice : trials:int option -> deadline_s:float option -> t option
(** The budget of one shard attempt, from its slice: [None] when the slice
    carries neither a trial cap nor a deadline (the unbudgeted,
    bit-identical path), otherwise a fresh budget with that cap and that
    many seconds.  A zero-trial or non-positive-deadline slice yields a
    born-cancelled budget: the solve degrades to its sound brackets
    immediately.  The same mapping serves a worker's order and the
    in-process run, so a shard's slice means the same thing wherever it
    runs; the caller charges the parent with the trials actually used. *)
