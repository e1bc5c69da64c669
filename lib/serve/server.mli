(** The resident [pqdb serve] daemon: one mmap'd database, one shared
    compiled-lineage cache, many sessions.

    The daemon loads a [.udbb] database once (the binary loader maps
    columns lazily, so the resident cost is the page cache's problem) and
    answers framed requests over a Unix-domain or loopback TCP socket,
    using {!Pqdb_distrib.Protocol}'s CRC-framed [Query]/[Reply] messages.
    Repeated or incremental [conf] queries hit the {!Pqdb_montecarlo.Memo}
    cache and skip normalization and compilation entirely, going straight
    to the one-shard batch solve.

    {2 Request language}

    One request per [Query] frame, answered by one [Reply]:

    {ul
    {- [conf <relation> [eps=F] [delta=F] [seed=N] [fuel=N] [deadline=SECS]
       [trials=N]] — per-tuple confidence for every possible tuple of the
       relation.  The reply body is one-shard [pqdb batch] output, also
       under [trials=N] ([--max-trials N]): one
       ["<index> %h-est %h-lo %h-hi <trials>"] line per tuple.  Defaults:
       [eps=0.05], [delta=0.01], [seed=42], fuel
       {!Pqdb_montecarlo.Compile.default_fuel}.  Deterministic per [seed]:
       a warm (cached) run is byte-identical to a cold one.  [deadline=] /
       [trials=] give the query its own {!Pqdb_montecarlo.Budget}: past the
       cutoff the reply still arrives, carrying the sound (possibly
       a-priori) brackets reached so far — the degraded anytime answer —
       and the spend is charged against the session allowance too.

       With constraints asserted on the session, the reply carries
       {e conditioned} confidences [Pr(t ∈ q | c)] instead
       ({!Pqdb_conditioning.Condition}), same line format; the extra RNG
       lane for the shared [Pr(c)] denominator is split deterministically
       from the same [seed], and every cache entry is salted with the
       constraint-set fingerprint, so warm conditioned replies are
       byte-identical to cold ones and can never be served from (or leak
       into) unconditioned entries.  An unsatisfiable constraint set gets
       an [ok = false] reply carrying the typed
       {!Pqdb_runtime.Pqdb_error.Unsatisfiable_condition} message.}
    {- [assert <constraint>] — parse ({!Pqdb_lang.Qparser.parse_constraint})
       and add one constraint to {e this session's} set:
       [fd[K -> D](table)], [empty(q)] (denial) or [(q)] (holds).
       Constraint state is per session, never global; sessions conditioning
       differently share the daemon and its cache safely.}
    {- [retract] — clear the session's constraint set; subsequent [conf]
       replies are byte-identical to a session that never asserted.}
    {- [stats] — server and cache counters, one [key value...] line each
       (cache hits / misses / evictions, sessions, queries, errors).}
    {- [shutdown] — reply, then stop the daemon cleanly.}}

    Bad requests get an [ok = false] reply carrying the rendered error;
    the session survives.

    {2 Admission control}

    When the configuration carries session limits, every session draws its
    [conf] sampling from an own {!Pqdb_montecarlo.Budget} (trial cap and/or
    wall-clock deadline): queries degrade anytime-style as the budget
    drains, and a session whose budget is exhausted has further [conf]
    requests refused at admission.  An unconfigured server passes no budget
    at all — the bit-identical, never-degrading path.

    {2 Overload and fault behavior}

    Sessions do frame I/O directly over the socket with [select]-guarded
    deadlines: [io_timeout_s] bounds each frame write, [idle_timeout_s]
    bounds the wait for a session's next request (beyond it the session is
    {e reaped}), and a [watchdog_s] thread shuts down the socket of any
    session stuck executing one request longer than that, so a stalled
    query can not wedge its peer.  With [max_sessions] set, a connection
    arriving while that many sessions are in flight is {e shed}: it gets
    one immediate [ok = false] reply whose body starts with ["busy:"]
    (surfaced by {!Pqdb_serve.Client} as a typed [Busy]), then the
    connection closes — the daemon never queues unboundedly.  Shed and
    reap totals are reported in {!stats} and the [stats] request.

    The accept loop fires the ["serve.accept"] fault point per connection
    (an injected fault drops that connection and the server carries on),
    and every request fires ["serve.session"]; session frame I/O fires the
    protocol's ["distrib.send"]/["distrib.recv"] sites. *)

type listen = Unix_socket of string | Tcp of int
(** Where to listen: a Unix-domain socket path, or a TCP port bound on
    loopback only. *)

val pp_listen : listen -> string

type config = {
  db_path : string;  (** the [.udbb] (or directory) database to serve *)
  listen : listen;
  cache_entries : int;  (** compiled-lineage cache entry cap (LRU) *)
  session_trials : int option;  (** per-session trial allowance *)
  session_deadline_s : float option;  (** per-session wall-clock allowance *)
  io_timeout_s : float option;
      (** per-frame write (and greeting) deadline on session sockets *)
  idle_timeout_s : float option;
      (** max wait for a session's next request before it is reaped;
          defaults to [io_timeout_s] when unset *)
  max_sessions : int option;
      (** in-flight session cap; excess connections are shed with a typed
          busy reply instead of queueing *)
  watchdog_s : float option;
      (** wedged-session threshold: one request executing longer than this
          gets its socket shut down *)
}

type stats = {
  sessions : int;  (** sessions accepted *)
  queries : int;  (** query frames handled *)
  errors : int;  (** requests answered with [ok = false] or torn frames *)
  dropped : int;  (** connections dropped at accept (injected faults) *)
  shed : int;  (** connections refused with a busy reply at the cap *)
  reaped : int;  (** sessions closed by idle timeout or the watchdog *)
  cache : Pqdb_montecarlo.Memo.stats;
}

type t

val create : config -> t
(** Load the database and build the (empty) cache; no socket yet.
    @raise Invalid_argument when [cache_entries < 1], [max_sessions < 1]
    or a non-positive timeout; database load errors propagate. *)

val run : ?ready:(unit -> unit) -> t -> stats
(** Bind, call [ready] (e.g. print a readiness line), and serve until a
    [shutdown] request.  Once the accept loop stops, waits up to 5 s for
    sessions still mid-request (and not reaped by the watchdog) to write
    their replies — the [shutdown] reply included — then returns the final
    counters.  The listening
    socket (and a Unix socket path) are cleaned up on exit. *)

val serve : ?ready:(unit -> unit) -> config -> stats
(** [create] + [run]. *)

val stats : t -> stats

type session
(** Per-connection state: the active constraint set and its compiled
    lineage.  Socket sessions get one automatically; in-process callers
    pass one to [dispatch] to use [assert]/[retract]/conditioned [conf]. *)

val new_session : unit -> session
(** A fresh session with no constraints. *)

val dispatch :
  t -> ?budget:Pqdb_montecarlo.Budget.t -> ?session:session -> string ->
  string
(** Handle one request in-process (no socket): the reply body on success.
    Exposed for tests and the in-process warm/cold bench.  Without a
    [session], [assert]/[retract] are refused and [conf] is unconditioned.
    @raise Failure with the message an [ok = false] reply would carry. *)
