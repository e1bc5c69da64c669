(** Batched approximate confidence: the whole-U-relation compiled path.

    Every tuple's lineage is compiled first ({!Compile}): tuples that
    decompose fully are answered exactly for free, and only the rest are
    farmed to {!Compile.solve} over the domain pool.  Exact confidence
    lives in {!Lineage.exact}.

    A batch has one entry point, {!run_stream} (the distributed
    coordinator drives the same {!open_run} … {!close_run} run).  Its
    per-tuple result is the {!Shard.outcome} it emits for each shard:
    estimates, brackets, trials, and each tuple's achieved relative ε.

    Determinism contract: every tuple gets its own lane
    ({!Pqdb_numeric.Rng.lane}, the stream {!Pqdb_numeric.Rng.split_n} would
    give it, built only when the tuple samples), its own output slot and
    trial slice, and runs its one sampling pass on one domain.  For a fixed
    parent RNG state (and fixed compilation fuel) the estimates are therefore
    bit-identical across runs {e and across pool sizes}; parallelism is
    across tuples only. *)

open Pqdb_numeric
open Pqdb_urel

type batch

val prepare : ?compile_fuel:int -> Wtable.t -> Assignment.t list array -> batch
(** The batch's clause sets, for {!total_trials}.  Nothing is compiled
    here, so neither [compile_fuel] nor the W table changes the result;
    the batch runs compile each shard's tuples themselves. *)

val total_trials : batch -> eps:float -> delta:float -> int
(** Σ per-tuple fixed Chernoff budgets — what the {e uncompiled} FPRAS would
    pay.  The compiled run typically spends far less; compare against
    the emitted {!Shard.outcome.trials}. *)

type hook =
  | Hook : {
      tuple : int -> 'a;  (** tuple [i], built when its shard is solved *)
      apriori : 'a -> Compile.outcome;
          (** its zero-trial answer: done when [Exact], else the bracket
              reported if its solve never runs or dies *)
      cost : 'a -> int;
          (** the most trials its solve can spend: a trial cap is dealt by
              it, and cost [0] takes no share *)
      solve : 'a -> Budget.t option -> (unit -> Rng.t) -> Compile.outcome;
          (** its solve under its own slice, building the lane only when it
              samples *)
    }
      -> hook
(** What a batch run asks of each tuple ({!open_run}'s [hook]). *)

val compiled : eps:float -> delta:float -> (int -> Compile.t) -> hook
(** Compiled values as tuples: {!Compile.apriori}, {!Compile.cost_cap}
    and {!Compile.solve_lane}. *)

(** {1 Streaming, checkpointed execution}

    {!run_stream} processes a batch shard-at-a-time ({!Shard.plan}): only
    one shard's compiled trees and samplers are resident at a time, so
    memory is bounded by the shard cost ceiling rather than the batch, and
    results are pushed to [emit] incrementally.  Per-tuple RNG lanes are
    drawn over the whole batch up front, so without a budget the estimates
    do not depend on the shard geometry, the pool size or the process that
    runs a shard — and, through the journal, match any
    interrupted-and-resumed replay of the stream. *)

type stream_options = {
  shard_cost : int;
      (** Worst-case-trial ceiling per shard ({!Shard.plan}); bounds
          resident memory and the work a crash can lose.  Default 1e6. *)
  retries : int;
      (** Attempts after the first failure before a shard is quarantined
          (also the retry budget for journal appends).  Deterministic
          backoff {!Shard.backoff_s} between attempts.  Default 2. *)
  checkpoint : string option;
      (** Journal path ({!Pqdb_runtime.Checkpoint}): every completed shard
          is appended and fsync'd before [emit] sees it, so a killed process
          loses at most the shard in flight. *)
  resume : bool;
      (** Replay completed shards from [checkpoint] instead of recomputing
          them, then continue (and keep journaling) from the first gap. *)
}

val default_stream_options : stream_options

type stream_summary = {
  shards : int;
  resumed_shards : int;  (** replayed from the journal, not recomputed *)
  quarantined : (int * Pqdb_runtime.Pqdb_error.t) list;
      (** Shards that kept failing after their retry budget, with the last
          typed error.  Their tuples report a-priori brackets; they are not
          journaled, so a later resume retries them (self-healing). *)
  stream_trials : int;  (** estimator calls, journaled spend included *)
  stream_complete : bool;
      (** every shard ran (or replayed) to its (ε, δ) contract *)
  journal_ok : bool;
      (** [false] when journaling had to be abandoned mid-run (persistent
          append failure) — results are unaffected but the journal is
          incomplete. *)
}

(** {1 One batch run}

    What a batch run is, for {!run_stream}, the distributed coordinator and
    every worker alike.  {!open_run} opens it; the run owns the one shard
    schedule: which shards are resolved, the static trial slices, the
    outcomes waiting for their turn, and the plan-order emission that
    builds the one {!stream_summary}.  {!record} resolves a shard,
    {!solve_pending} solves shards in process through the only
    retry/quarantine loop (a worker makes single {!solve_shard} attempts
    and the coordinator retries), and {!close_run} summarizes. *)

type run
(** One opened batch: its inputs, plan, lanes, probe, meta, journal,
    budget slices, resolution state and the running summary of what has
    been emitted. *)

val open_run :
  ?budget:Budget.t -> ?nworkers:int -> ?compile_fuel:int ->
  ?hook:hook -> ?options:stream_options -> Rng.t ->
  Wtable.t -> Assignment.t list array -> eps:float -> delta:float ->
  emit:(Shard.outcome -> unit) -> run
(** Open a batch run: validate (ε, δ) and [options], plan the shards, draw
    the probe, draw the lanes (none for an empty batch), build the meta
    payload and, with [options.checkpoint], open (or resume) the journal;
    resumed shards are resolved from the start.  With a [budget] that caps
    trials, every planned shard's trial slice is fixed here: the
    allowance left at open dealt over all planned shards by a-priori cost
    ({!Budget.allocate}); then each resumed shard's journaled spend is
    charged to [budget].  [emit] receives each outcome, in plan order.
    The parent RNG advances by exactly one {!Pqdb_numeric.Rng.split_n}'s
    draws ({!Pqdb_numeric.Rng.lanes}); no lane is built here.
    [nworkers] (pool size per shard) defaults to {!Pool.default_workers}.
    [hook] gives each tuple (default: {!compiled} over {!Compile.compile}
    at [compile_fuel]).
    @raise Invalid_argument on bad (ε, δ), options, [nworkers <= 0], or
    [resume] without a [checkpoint] path.
    @raise Pqdb_runtime.Pqdb_error.Error ([Malformed_input]) when resuming
    from a corrupt or mismatched journal ({!Shard.open_journal}). *)

val plan : run -> Shard.t array
(** {!Shard.plan} under [options.shard_cost]. *)

val probe : run -> string
(** The handshake RNG probe: a ["%h"] draw from a {e copy} of the batch
    seed, taken before the lanes are drawn.  Literal equality between two
    runs certifies that their seeds, hence all their lanes, agree. *)

val meta : run -> string
(** {!Shard.meta_payload}: the journal's first record and the handshake's
    parameter check. *)

val fingerprint : run -> Shard.t -> string
(** The shard's {!Shard.fingerprint}, hashed on first use and cached. *)

val resolved : run -> int -> bool
(** Whether the shard at this plan index has its outcome (resumed or
    {!record}ed). *)

val unresolved : run -> int
(** How many planned shards have no outcome yet. *)

val order_slice : run -> Shard.t -> int option * float option
(** What a distributed order for the shard carries: its static trial slice
    ([None] without a trial cap, [Some 0] once the budget is cancelled)
    and the budget's remaining deadline.  [(None, None)] without a
    budget. *)

val solve_shard :
  ?budget:Budget.t -> run -> Shard.t -> fp:string -> Shard.outcome
(** One attempt at one shard.  Each tuple that samples builds its lane
    afresh ({!Pqdb_numeric.Rng.lane}); a tuple that compiles exactly, or
    whose compiled bracket already certifies ε ({!Compile.solve_lane}),
    builds none.  By the per-tuple-lane contract the outcome is bit-identical no
    matter which process runs it, in what order, or after how many failed
    attempts.  [budget], if given, is the attempt's own budget — the caller
    charges any parent afterwards.  Its trial cap is dealt over the tuples
    that may sample by their hook [cost], each sampling under its own
    {!Budget.slice} and the shared deadline.  [fp] is stored in the
    outcome.  Fires the ["shard.run"] fault point; failures propagate. *)

val apriori_outcome : run -> Shard.t -> fp:string -> error:exn -> Shard.outcome
(** The sound give-up outcome for a shard whose computation cannot be
    trusted: per-tuple a-priori compiled brackets (exact where compilation
    resolves the tuple, vacuous [0, 1] where even compiling fails), zero
    trials, [achieved] the relative ε each estimate is proven to ([0] when
    exact, [(hi − lo)/hi] on a bracket's floor, [1] when vacuous),
    [complete = false], and [error] typed into [quarantined]
    ([Pqdb_error.Error t] gives [t]; any other exception is wrapped in
    [Task_failure]). *)

val record : run -> Shard.outcome -> unit
(** Resolve the outcome's shard: charge its trials to the run's budget,
    append it to the journal (unless quarantined, or the journal is not
    live), then emit every outcome now ready in plan order.
    @raise Invalid_argument when the shard is already resolved. *)

val solve_pending : run -> int list -> unit
(** Solve the listed shards (plan indices) that are still unresolved, in
    list order and in process, and {!record} each; then emit whatever is
    ready.  Each shard gets up to [1 + options.retries] {!solve_shard}
    attempts with the deterministic {!Shard.backoff_s} between them, each
    under a fresh shard budget ({!Budget.slice}): its static trial slice,
    and its cost share of the remaining deadline over the unresolved
    cost — dead once the budget is cancelled or past its deadline.  A
    shard still failing is quarantined through {!apriori_outcome} with the
    last exception. *)

val close_run : run -> stream_summary
(** Close the journal and summarize what was emitted: trials (journaled
    spend included), resumed shards, quarantines in plan order, and the
    journal's state.  Also the way to close the journal of a run cut short
    by an exception. *)

val run_stream :
  ?budget:Budget.t -> ?nworkers:int -> ?compile_fuel:int ->
  ?hook:hook -> ?options:stream_options -> Rng.t ->
  Wtable.t -> Assignment.t list array -> eps:float -> delta:float ->
  emit:(Shard.outcome -> unit) -> stream_summary
(** Run a batch: stream it shard by shard, calling [emit] once per shard
    in plan order with the shard's {!Shard.outcome} — the per-tuple result,
    which callers read by tuple index ([shard.first + j]): {!open_run},
    {!solve_pending} over the whole plan (resumed shards are replayed, not
    solved; lanes are built afresh per attempt, so retries replay the
    fault-free stream), {!close_run}.  Each shard is released before the
    next one starts.  With [options.shard_cost = max_int] the batch is one
    shard: one pool run under one governor.

    A tuple may miss the requested ε only on a run whose summary is not
    [stream_complete], and exactly when its [achieved] exceeds ε.

    With a [budget], each shard runs under its own slice, fixed by rule
    and never by live spend: a trial cap is dealt once over all planned
    shards by a-priori cost ({!open_run}), and a deadline shared out by
    cost over the shards still unresolved; each tuple then samples under
    its own slice of its shard's ({!solve_shard}).  So under a trial budget
    the bits do not depend on the worker count, the pool size or a resume;
    the price is that unspent trials are not re-dealt.  A
    cancelled budget (or one past its deadline) gives every later shard a
    dead slice; a cancel-only budget is observed between shards.  The call
    is {e anytime}: on exhaustion the remaining sampling is cut short and
    every tuple still reports a sound interval — the partial-trial bracket
    for tuples cut mid-flight, the a-priori compiled bracket for tuples
    never reached.

    Failures are contained at shard granularity: a shard that still raises
    after [retries] attempts is {e quarantined} — emitted with sound
    a-priori brackets and the typed error — and the stream continues.  A
    single tuple's failure degrades that tuple, and the pool's failure its
    shard's sampling tuples, to the same a-priori brackets.
    Exceptions from [emit] itself are not contained (the journal already
    holds the emitted shard, so a crashed consumer resumes cleanly).

    @raise Invalid_argument on bad (ε, δ), options, or [resume] without a
    [checkpoint] path.
    @raise Pqdb_runtime.Pqdb_error.Error ([Malformed_input] naming the
    journal path and record index) when resuming from a journal that is
    corrupt mid-file or was written by a different run (parameters,
    geometry or data fingerprint mismatch). *)

val run_one_shard :
  ?budget:Budget.t -> ?hook:hook -> Rng.t -> Wtable.t ->
  Assignment.t list array -> eps:float -> delta:float ->
  emit:(Shard.outcome -> unit) -> unit
(** {!run_stream} as one shard ([shard_cost = max_int]) with no retry:
    building a tuple is deterministic, so the first quarantined error is
    raised, a [Task_failure] unwrapped to its inner exception. *)
