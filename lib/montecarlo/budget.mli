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

    A budget is shared: all tuples of a batch (across all pool domains)
    draw from the same trial pool and watch the same deadline.  All
    operations are atomic/lock-free and safe from worker domains.

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

val limitless : t -> bool
(** [true] when the budget carries neither a deadline nor a trial cap — it
    can only exhaust via {!cancel}.  Schedulers share such a budget directly
    instead of splitting it, so cancellation propagates live. *)

val exhausted : t -> bool
(** [true] once the budget is cancelled, over its trial budget, or past its
    deadline.  The deadline check is sticky: once observed expired it stays
    expired, so a loop polling [exhausted] terminates promptly. *)

val allocate : trials:int -> costs:int array -> int array
(** Apportion a trial allowance over work items proportionally to their
    costs, {e exactly}: the returned shares always sum to [trials]
    (largest-remainder method — integer floors by cost share, then the
    remainder handed out by largest fractional part, lowest index on ties).
    When [trials >= Array.length costs] every item gets at least one trial;
    an all-zero cost vector spreads evenly.  Deterministic, pure — the
    distributed coordinator uses it to deal identical static slices no
    matter which worker runs which shard.
    @raise Invalid_argument on negative [trials] or any negative cost. *)

val split : t -> cost:int -> remaining_cost:int -> t
(** A fresh child budget granted the share [cost / remaining_cost] of the
    parent's {e remaining} trial and wall-clock allowance — the primitive
    behind budget-aware shard scheduling: walking a plan with
    [remaining_cost] the summed cost of the shards not yet run divides what
    is left proportionally instead of first-come-first-served.  Trial
    shares round to nearest and the closing share ([cost >= remaining_cost])
    takes the whole remainder, so over a full sequential schedule the
    shares sum to {e exactly} the remaining allowance — no trials are lost
    to truncation on the last shard.  Every live share is at least one
    trial (so a tiny shard can still certify something), which can
    oversubscribe by at most one trial per such shard; the per-shard
    re-split against the parent's live remainder self-corrects.  The child
    is independent once created (charge the parent with the trials actually
    used afterwards); an already exhausted parent yields a cancelled child.
    Trial-only splits are deterministic; deadline shares depend on the
    clock.
    @raise Invalid_argument when [remaining_cost < 1]. *)
