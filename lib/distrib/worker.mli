(** The worker half of distributed shard execution.

    A worker is handed the {e same} inputs as the coordinator — batch seed,
    W table, clause sets, (ε, δ), compilation fuel, shard ceiling — and
    opens the same run locally ({!Pqdb_montecarlo.Confidence.open_run}:
    shard plan, whole-batch per-tuple RNG lanes, meta, probe).  Orders then
    only carry a shard index, a data fingerprint and a budget slice (which
    {!Pqdb_montecarlo.Budget.slice} turns into the attempt's budget); by the
    {!Pqdb_montecarlo.Confidence.solve_shard} contract the outcome a worker
    sends back is bit-identical to the one the in-process stream would have
    computed for that shard, which is what lets the coordinator mix
    workers, retries and in-process fallback freely.  A worker makes one
    attempt per order; retrying and quarantining are the coordinator's.

    Parameter or seed drift is caught twice: the [Hello] handshake carries
    the run's meta payload and RNG probe for the coordinator to compare
    literally, and each order's fingerprint is re-derived from the worker's
    own data before solving (mismatch answers [Failed], never a wrong
    shard). *)

open Pqdb_numeric
open Pqdb_urel

val serve_session :
  ?compile_fuel:int -> ?nworkers:int -> ?shard_cost:int ->
  ?heartbeat_s:float -> ?frame_timeout_s:float -> ?tcp:bool ->
  Rng.t -> Wtable.t -> Assignment.t list array ->
  eps:float -> delta:float ->
  in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit -> unit
(** Run one coordinator session over raw fds ([in_fd] = [out_fd] for a
    socket): send [Hello], then answer [Order]s with [Outcome] (or
    [Failed] — a failed shard does not kill the session; the coordinator
    decides between reassignment and quarantine) until [Shutdown] or EOF.
    A heartbeat thread ticks every [heartbeat_s] (default 0.25 s) the
    whole time, including during long solves; a [Lease] grant whose ttl
    the cadence cannot renew clamps the interval down (with a stderr
    warning).  A duplicated order frame resends the cached reply instead
    of re-solving.  [shard_cost] must match the coordinator's
    ({!Pqdb_montecarlo.Confidence.stream_options} default); [nworkers]
    sizes this worker's own domain pool.  SIGPIPE is ignored so a
    vanished coordinator surfaces as an I/O error, not a process kill.

    Orders are read with {!Protocol.read_fd_frame}: the idle wait between
    frames is unbounded, but once a frame starts its remainder must arrive
    within [frame_timeout_s] (default 30 s) — a coordinator that tears a
    frame mid-write cannot leave the worker wedged-but-heartbeating.
    [tcp] (default false) routes all I/O through the {!Protocol} TCP fault
    wrappers and bounds sends by [frame_timeout_s] too.
    @raise Invalid_argument on bad (ε, δ) or [shard_cost] (as
    {!Pqdb_montecarlo.Confidence.open_run}), [heartbeat_s] or
    [frame_timeout_s].  I/O errors on a dead peer propagate. *)

val serve :
  ?compile_fuel:int -> ?nworkers:int -> ?shard_cost:int ->
  ?heartbeat_s:float -> ?frame_timeout_s:float ->
  Rng.t -> Wtable.t -> Assignment.t list array ->
  eps:float -> delta:float -> input:in_channel -> output:out_channel -> unit
(** {!serve_session} over the fds underlying a channel pair — the
    stdin/stdout worker the coordinator's process transport spawns.
    [input] must carry no channel-buffered read-ahead; read any greeting
    off its fd ({!Protocol.read_fd_frame}), not through the channel.
    I/O errors on a dead peer propagate — the CLI turns them into a
    nonzero exit. *)

val listen :
  ?compile_fuel:int -> ?nworkers:int -> ?shard_cost:int ->
  ?heartbeat_s:float -> ?frame_timeout_s:float ->
  ?max_sessions:int -> ?ready:(int -> unit) ->
  make_rng:(unit -> Rng.t) ->
  resolve:((string * string) option -> Wtable.t * Assignment.t list array) ->
  host:string -> port:int -> eps:float -> delta:float -> unit -> unit
(** Remote worker: bind [host:port] (TCP, [SO_REUSEADDR]; [port = 0] picks
    an ephemeral port, reported through [ready] along with any fixed one)
    and serve coordinator connections one session at a time, each a full
    {!serve_session} with [tcp:true].  The coordinator speaks first; its
    greeting [Hello]'s [source] field is passed to [resolve] to produce
    this worker's inputs ([None] = synthetic workload from local
    arguments), and resolved inputs are cached per source so a
    reconnecting coordinator finds the data warm.  [make_rng] supplies a
    fresh batch-seed RNG per session (sessions must not advance each
    other's lanes).  A session that ends — [Shutdown], EOF from a lost
    coordinator, or a faulted connection (logged to stderr) — returns the
    listener to [accept]: surviving to serve the next dial is the
    worker-side half of reconnect-resume.  [max_sessions] bounds the
    number of sessions served (default unbounded), for tests and drains.
    @raise Invalid_argument on bad parameters or an unresolvable [host]
    ({!Dial.resolve_host}); bind errors propagate. *)
