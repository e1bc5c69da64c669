(** Distributed shard execution: a coordinator dealing the shard plan to
    worker processes over the checkpoint journal.

    The coordinator opens the same run as
    {!Pqdb_montecarlo.Confidence.run_stream}
    ({!Pqdb_montecarlo.Confidence.open_run}: plan, per-tuple RNG lanes,
    probe, meta and journal state), but instead of solving shards inline it
    deals them to [workers] spawned over {!transport}s, heaviest-first
    (LPT), and reconciles the answers:

    {ul
    {- {e Bit-identity}: workers recompute lanes from the same seed and copy
       each shard's lane slice fresh
       ({!Pqdb_montecarlo.Confidence.solve_shard}), so without a budget the
       emitted outcomes — and anything printed from them — are byte-for-byte
       those of the single-process stream, for any worker count, any
       completion order, and any crash/reassignment history.  Under a
       trial budget they are too, at one pool domain per process (more
       domains race a shard's slice): every path deals the same static
       slices.  [emit] is called in plan order regardless of completion
       order.}
    {- {e Fault tolerance}: worker death (EOF, I/O error, heartbeat
       timeout) requeues its in-flight shard for the survivors; a shard
       whose attempts exceed the retry budget (spread over distinct workers
       when the fleet allows) is quarantined with sound a-priori brackets
       and a [Task_failure] carrying the worker's failure text.  With every
       worker gone the coordinator finishes in-process through the stream's
       own loop ({!Pqdb_montecarlo.Confidence.solve_pending}: same slices,
       same retry/quarantine policy), so a shard quarantined there carries
       the same typed error as in [run_stream] — distribution can only add
       capacity, never lose results.}
    {- {e Journal compatibility}: completed shards are appended to the same
       {!Pqdb_runtime.Checkpoint} journal with the same records, and the
       summary is built by the same
       {!Pqdb_montecarlo.Confidence.close_run}, so a run
       may be interrupted under one worker count and resumed under another
       (including one, i.e. plain [run_stream]) bit-identically.  On clean
       completion the journal is compacted in place
       ({!Pqdb_montecarlo.Shard.compact_journal}).}}

    The run's state — which shards are resolved, the outcomes waiting
    for their turn, plan-order emission, journal appends and budget
    charging — is the one {!Pqdb_montecarlo.Confidence.open_run} keeps for
    the stream too; the coordinator adds only what is distributed: the
    fleet, leases and epochs, LPT dealing and redials.  Each order carries
    the shard's static trial slice
    ({!Pqdb_montecarlo.Confidence.order_slice}) and the budget's remaining
    deadline; cancellation turns any later order into an already-dead
    slice. *)

open Pqdb_numeric
open Pqdb_urel

type transport = {
  send : Protocol.msg -> unit;
  recv : unit -> Protocol.msg option;  (** blocking; [None] on clean EOF *)
  pid : int option;
      (** [Some pid] for a real process — enables SIGKILL on lease expiry
          and waitpid reaping; [None] for an in-process or remote
          transport. *)
  remote : bool;
      (** A network link rather than a local pipe: lease expiry suspends
          the worker (partition-tolerant — it may heal and rejoin) instead
          of killing it, and a lost connection is redialed
          ([max_reconnects]).  Set by {!tcp_transport}; false for the
          pipe-based constructors, whose silence means death, not
          partition. *)
  close : unit -> unit;  (** idempotent; must release both directions *)
}

val fd_transport :
  ?io_timeout_s:float -> ?pid:int -> close:(unit -> unit) ->
  in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit -> transport
(** Wrap an already-connected descriptor pair: orders are written to
    [out_fd] ({!Protocol.write_fd}) and outcomes read from [in_fd]
    ({!Protocol.read_fd}), each bounded by [io_timeout_s] when given.  The
    building block behind the two constructors below, exposed for tests
    and embeddings that manage their own processes (e.g. a fork without
    exec). *)

val process_transport : ?io_timeout_s:float -> string array -> transport
(** Spawn [argv] ([argv.(0)] is the executable) with the order channel on
    its stdin and the outcome channel on its stdout (stderr passes
    through), close-on-exec on all parent-side ends so sibling workers
    cannot mask each other's EOF.  The standard transport behind
    [pqdb_cli batch --workers N].  [io_timeout_s] bounds every
    coordinator-side send/recv with a [select] deadline
    ({!Protocol.read_fd}): a worker wedged mid-frame surfaces as a typed
    [Timeout] and is treated as lost, instead of hanging its reader thread
    forever.  Pick it larger than the worker heartbeat interval (0.25 s),
    which bounds inter-frame silence from a healthy worker. *)

val thread_transport :
  ?io_timeout_s:float ->
  (input:in_channel -> output:out_channel -> unit) -> transport
(** Run a worker loop (typically {!Worker.serve} partially applied) on an
    in-process thread connected by pipes — same protocol, same framing, no
    fork.  Used by benchmarks and anywhere fork is unavailable; [close]
    joins the thread.  [io_timeout_s] as for {!process_transport}. *)

val tcp_transport :
  ?io_timeout_s:float -> ?retries:int -> ?retry_delay_s:float ->
  ?max_delay_s:float -> host:string -> port:int -> unit -> transport
(** Dial a remote {!Worker.listen} worker at [host:port]
    ({!Dial.connect}: up to [retries] extra attempts with capped jittered
    backoff — listeners may still be starting).  The transport is marked
    [remote] and its I/O goes through the {!Protocol} TCP fault wrappers,
    so ["distrib.tcp.drop"/"stall"/"dup"] inject network failures on this
    path; [io_timeout_s] as for {!process_transport} (recommended — an
    unbounded send to a half-open peer can block until the kernel buffers
    fill).  [close] shuts the socket down before closing so a reader
    blocked in [recv] wakes with EOF.
    @raise Invalid_argument on an unresolvable [host];
    [Unix.Unix_error] when the dial ultimately fails. *)

type summary = {
  stream : Pqdb_montecarlo.Confidence.stream_summary;
      (** The same accounting the sequential stream reports. *)
  workers_spawned : int;  (** transports successfully opened at start *)
  spawn_failures : string list;
      (** the printed exception of each initial admission (spawn, dial or
          handshake) that failed, in slot order; [[]] when every slot was
          admitted *)
  workers_lost : int;
      (** connections that died, timed out, were refused at handshake, or
          turned corrupt (a slot lost and redialed counts once per lost
          connection) *)
  reassigned : int;
      (** in-flight shards requeued off a lost or suspended worker *)
  reconnects : int;  (** lost remote slots successfully re-dialed *)
  leases_expired : int;
      (** remote workers suspended because their lease lapsed (the
          partition-tolerance path; process workers are killed instead) *)
  late_drops : int;
      (** duplicate or superseded deliveries dropped by first-wins
          ingestion — outcomes for already-resolved shards, duplicated
          frames, late failures from expired leases *)
  fallback_shards : int;  (** shards solved in-process, fleet gone *)
  compacted : (int * int) option;
      (** [(kept, dropped)] when the journal was auto-compacted on clean
          completion. *)
}

val run :
  ?budget:Pqdb_montecarlo.Budget.t -> ?nworkers:int -> ?compile_fuel:int ->
  ?options:Pqdb_montecarlo.Confidence.stream_options ->
  ?lease_ttl_s:float -> ?max_reconnects:int -> ?reconnect_delay_s:float ->
  ?source:string * string ->
  workers:int -> spawn:(int -> transport) ->
  Rng.t -> Wtable.t -> Assignment.t list array -> eps:float -> delta:float ->
  emit:(Pqdb_montecarlo.Shard.outcome -> unit) -> summary
(** Execute the batch over [workers] transports obtained from [spawn]
    (called with worker ids 0..workers−1; fires ["distrib.spawn"] per
    worker — a spawn that raises just shrinks the fleet).  Each worker is
    first sent a greeting [Hello] carrying this run's meta/probe and
    [source] — [(db_path, relation)] when the batch reads a stored
    database — so bare worker processes can load the database themselves
    (sharing one [.udbb] mapping through the page cache) instead of being
    re-told via argv or regenerating from a seed.  Workers are
    admitted only after a reply [Hello] matching this run's meta payload
    and RNG probe, and are then granted a [Lease] of [lease_ttl_s]
    (default 30 s); drifted workers are refused, counted lost, and never
    redialed.

    {e Lease-based liveness}: a worker not heard from within [lease_ttl_s]
    has an expired lease.  For a process worker that means SIGKILL; for a
    [remote] transport it means suspension — the in-flight shard is
    requeued (reassignable even though the socket still looks alive: the
    half-open case) and the worker rejoins the pool the moment it speaks
    again.  Every order carries a fresh lease {e epoch}; ingestion is
    idempotent and first-wins on (shard, epoch), so a late outcome from a
    superseded lease, or a duplicated frame, is detected and dropped
    ([late_drops]) — and since shard outcomes are bit-identical whoever
    computes them, first-wins keeps [emit]'s byte stream identical to the
    single-process one for {e any} fleet history.

    {e Reconnect-resume}: a lost [remote] connection is redialed — same
    spawn slot, hence same endpoint — with capped jittered backoff, up to
    [max_reconnects] (default 0) times per slot ([reconnect_delay_s],
    default 0.25 s, seeds the backoff); the fresh connection re-handshakes
    with the same drift-refusal probe before rejoining.  In-process
    fallback engages only when no active worker remains {e and} no redial
    is pending; suspended workers never delay it (a partition may never
    heal), their late deliveries being dedup'd as above.

    [options] carries the shard ceiling, retry budget and
    checkpoint/resume exactly as for [run_stream]; resumed shards are
    replayed from the journal without being dealt.  Exceptions from
    [emit] are not contained (workers are killed, the journal closed, and
    the exception re-raised).
    @raise Invalid_argument on bad (ε, δ) or [options] (as
    {!Pqdb_montecarlo.Confidence.open_run}), [workers < 1],
    a non-positive [lease_ttl_s]/[reconnect_delay_s] or negative
    [max_reconnects].
    @raise Pqdb_runtime.Pqdb_error.Error on a corrupt or mismatched resume
    journal, as for [run_stream]. *)
