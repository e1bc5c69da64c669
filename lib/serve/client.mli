(** Client side of the [pqdb serve] protocol: connect, submit request
    specs, read reply bodies.  Used by the [pqdb query] subcommand and the
    serve tests. *)

type t

val connect :
  ?retries:int -> ?retry_delay_s:float -> ?max_delay_s:float ->
  ?io_timeout_s:float -> Server.listen -> t
(** Connect and consume the server's hello greeting.  [retries]
    (default 0) extra attempts are made when the socket is not there yet
    (connection refused / path absent), when the greeting times out, or
    when the daemon sheds the connection with a busy reply; attempt [k]
    backs off {!Pqdb_distrib.Dial.backoff_delay_s}[ ~retry_delay_s
    ~max_delay_s k] — capped exponential (base [retry_delay_s], default
    0.2; cap [max_delay_s], default 2.0) with deterministic jitter, salted
    per connection with pid ⊕ fd so a fleet of clients retrying together
    spreads out instead of thundering in lockstep.  [io_timeout_s]
    bounds every frame read/write on the connection (greeting included);
    unset means block.
    @raise Unix.Unix_error when the last attempt fails to connect;
    @raise Pqdb_runtime.Pqdb_error.Error [(Busy _)] when the daemon shed
    the last attempt, [(Timeout _)] when its greeting timed out, or
    [(Malformed_input _)] when the peer is not a pqdb-serve daemon. *)

val greeting : t -> string
(** The server's hello metadata (database path banner). *)

val query : ?timeout_s:float -> t -> string -> bool * string
(** Submit one request spec, wait for its reply: [(ok, body)] where [body]
    is the result on [ok = true] and the rendered error otherwise.
    [timeout_s] (default: the connection's [io_timeout_s]) bounds the
    whole round trip.  Every failure is typed:
    @raise Pqdb_runtime.Pqdb_error.Error [(Timeout _)] past the deadline,
    [(Busy _)] when the daemon shed the request, or [(Malformed_input _)]
    when the server vanished or sent a torn frame. *)

val close : t -> unit
(** Send a polite shutdown-of-session frame and close the connection (the
    daemon keeps running; use the [shutdown] request spec to stop it). *)
