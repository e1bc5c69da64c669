(** Shard planning and checkpoint records for streaming batch confidence.

    A shard is a contiguous run of batch tuples whose summed {e worst-case}
    sampling cost (the fixed Chernoff budget of the uncompiled FPRAS, the
    same a-priori model as {!Confidence.total_trials}) fits under a caller
    chosen ceiling.  {!Confidence.run_stream} compiles and solves one shard
    at a time, so resident memory is bounded by the shard ceiling rather
    than the batch, and journals one {!outcome} record per shard so a killed
    run loses at most the shard in flight.

    Planning is a pure function of the clause sets and (ε, δ, max_cost) —
    the same inputs always cut the same shard boundaries, which is what
    makes journal records from a previous process meaningful.  Tuples the
    compiler will resolve exactly still count 1 so a shard's tuple count
    never exceeds [max_cost].

    Records serialize through ["%h"] hex floats ({!Pqdb_numeric.Hexfmt}),
    so estimates and brackets round-trip {e bit-exactly} — resuming from a journal reproduces the
    uninterrupted run to the last bit. *)

open Pqdb_urel

type t = {
  index : int;  (** position in the plan, 0-based *)
  first : int;  (** index of the shard's first tuple in the batch *)
  count : int;  (** number of tuples (≥ 1) *)
  cost : int;  (** summed worst-case trial cost of its tuples *)
}

val tuple_cost : eps:float -> delta:float -> Assignment.t list -> int
(** Worst-case cost of one tuple: its fixed Chernoff budget, plus 1 so even
    free (empty / trivially-true) tuples occupy planning weight.
    @raise Invalid_argument when [eps] or [delta] is not positive. *)

val plan : eps:float -> delta:float -> max_cost:int -> Assignment.t list array -> t array
(** Greedy contiguous cut: tuples are appended to the current shard while
    the summed cost stays within [max_cost]; a single tuple costlier than
    [max_cost] gets a shard of its own.  Covers every tuple exactly once, in
    order.  Empty input plans to [[||]].
    @raise Invalid_argument when [max_cost < 1], [eps <= 0] or [delta <= 0]. *)

val fingerprint : Assignment.t list array -> t -> string
(** 8-hex CRC-32 over the shard's clause sets in canonical
    {!Udb_io.condition_to_string} syntax.  Stored in each journal record and
    re-checked on resume, so a journal replayed against different data (or a
    different shard plan) fails typed instead of silently splicing wrong
    numbers in. *)

type outcome = {
  shard : t;
  fp : string;
      (** the shard's {!fingerprint}, carried in the record; [""] from a
          {!Confidence.run_stream} whose journal was not live, since
          nothing reads it there *)
  estimates : float array;  (** per tuple of the shard, in batch order *)
  intervals : (float * float) array;
      (** per tuple, a bracket on the true confidence, holding except with
          its claim's δ *)
  trials : int array;  (** estimator calls per tuple *)
  achieved : float array;
      (** per tuple, the relative ε its estimate is proven to: its claim's
          {!Guarantee.eps}, or [(hi − lo)/hi] on the floor of an a-priori
          bracket (a quarantined shard, a dead task; [1] when even
          compiling failed) *)
  masses : float array;  (** per-tuple sampled residual mass *)
  complete : bool;
      (** every tuple's claim {!Guarantee.meets} [Guarantee.pass ~eps
          ~delta]; when [false], a tuple may miss ε exactly when its
          [achieved] exceeds it *)
  resumed : bool;  (** replayed from a journal, not recomputed *)
  quarantined : Pqdb_runtime.Pqdb_error.t option;
      (** [Some err] when the shard kept failing after its retry budget: the
          arrays hold a-priori compiled brackets (sound, never journaled)
          and [err] is the last failure, typed. *)
}

val add_batch_line : Buffer.t -> int -> float -> float -> float -> int -> unit
(** [add_batch_line buf i est lo hi trials] writes one line of the batch
    output contract, ["%d %h %h %h %d\n"]: tuple index, estimate, bracket
    and trials, every float bit-exact.  The numbers go through
    {!Pqdb_numeric.Hexfmt}, byte-identical to [Printf.bprintf] with that
    format at about a third of its cost. *)

val add_outcome : Buffer.t -> outcome -> unit
(** One {!add_batch_line} per tuple of the outcome, at [shard.first + j].
    [pqdb batch] (conditioned or not) and the serve [conf] reply all print
    through it, which keeps their bytes comparable. *)

val to_payload : outcome -> string
(** Newline-free journal payload.  Quarantined outcomes must not be
    journaled (resume should retry them); this raises [Invalid_argument] on
    one. *)

val of_payload : ?resumed:bool -> source:string -> record:int -> string -> outcome
(** Parse a journal payload back (bit-exact floats).  [resumed] defaults to
    [true] (journal replay); the distributed coordinator parses worker wire
    records with [~resumed:false] since those shards were computed fresh.
    @raise Pqdb_runtime.Pqdb_error.Error ([Malformed_input] naming [source]
    and [record]) on any syntax, arity or range problem. *)

val meta_payload :
  n:int -> eps:float -> delta:float -> fuel:int option -> shard_cost:int -> string
(** First record of every stream journal: the parameters that determine the
    shard plan and the sampling results.  Resume compares the stored payload
    against the current run's for literal equality — any drift (different
    batch size, ε, δ, fuel or shard ceiling) makes old records meaningless
    and must fail typed rather than resume. *)

val backoff_s : attempt:int -> float
(** Deterministic retry backoff: 0 before the first attempt, then
    5 ms · 2^(attempt−1), capped at 100 ms.  Pure function of [attempt], so
    retried runs behave identically everywhere. *)

(** {1 Journal lifecycle}

    The append/validate/abandon policy shared by the in-process stream
    ({!Confidence.run_stream}) and the distributed coordinator
    ({!Pqdb_distrib.Coordinator} if linked) — both write the {e same}
    journal format, which is what makes a journal resumable across any
    worker count, including one. *)

type journal

val null_journal : unit -> journal
(** The no-checkpoint journal: appends are no-ops, {!journal_ok} stays
    [true]. *)

val open_journal :
  ?retries:int -> resume:bool -> meta:string -> plan:t array ->
  clause_sets:Pqdb_urel.Assignment.t list array -> string ->
  journal * (int, outcome) Hashtbl.t
(** Open (or resume) a checkpoint journal at the given path.  A fresh or
    empty journal gets [meta] appended as its first record.  On resume the
    stored meta must equal [meta] literally, and every record is validated
    against the plan (known index, matching geometry, matching data
    fingerprint) with identical duplicates resolving first-wins; the
    validated outcomes are returned keyed by shard index.  [retries]
    (default 2) is the append retry budget before the journal is abandoned.
    @raise Pqdb_runtime.Pqdb_error.Error ([Malformed_input]) on parameter
    drift, corruption, conflicting duplicates, or plan mismatch. *)

val journal_append : journal -> string -> unit
(** Append one payload with retry/backoff; after [retries] consecutive
    failures the journal is abandoned (subsequent appends no-op,
    {!journal_ok} turns [false]) — journaling is an aid, not a contract. *)

val journal_ok : journal -> bool

val journal_live : journal -> bool
(** [true] while appends still reach a file: [false] for {!null_journal},
    after {!close_journal}, and once the journal was abandoned.  Callers
    skip fingerprint and payload work for a journal that is not live. *)

val close_journal : journal -> unit
(** Close the underlying writer (idempotent; no-op when abandoned). *)

val compact_journal : string -> int * int
(** Rewrite a journal in place keeping the meta record plus the latest
    record per shard id, in shard order — a journal extended across many
    partial runs stops growing without bound and restart cost becomes
    O(live shards).  Identical duplicates collapse; conflicting duplicates
    raise the same typed error resume would, so a compacted journal resumes
    exactly like the original.  The rewrite goes through a temp file and an
    atomic rename, so a crash mid-compaction leaves the original intact.
    Returns [(records kept, records dropped)], meta included.
    @raise Pqdb_runtime.Pqdb_error.Error ([Malformed_input]) on a missing,
    empty or corrupt journal. *)
