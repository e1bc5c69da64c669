(** Shared dial/backoff policy for socket clients: one capped-exponential
    jittered backoff law and one retrying TCP/Unix dial, used by the
    serve-layer client, the coordinator's TCP worker transport and its
    redial loop.  Keeping the policy in one module means a fleet of
    reconnecting peers spreads out under one jitter law instead of each
    layer re-inventing (and re-synchronizing) its own. *)

val backoff_delay_s :
  ?salt:int -> retry_delay_s:float -> max_delay_s:float -> int -> float
(** The delay before retry attempt [k] (0-based): [retry_delay_s * 2^k]
    capped at [max_delay_s], scaled into [[0.5, 1.0)] of itself by a
    deterministic Weyl-sequence jitter of [salt ⊕ k].  [salt]
    (default 0, which reproduces the historical attempt-only jitter)
    decorrelates distinct connections: pass {!connection_salt} so a fleet
    of peers retrying in the same second does not thundering-herd in
    lockstep. *)

val connection_salt : Unix.file_descr -> int
(** The per-connection jitter salt: pid ⊕ fd.  Combined with the attempt
    index inside {!backoff_delay_s}, this is the (pid ⊕ fd ⊕ attempt)
    spread — distinct processes, and distinct sockets within one process,
    land on distinct points of the jitter sequence. *)

val resolve_host : string -> Unix.inet_addr
(** [host] as a numeric address, or else its first DNS address — the one
    resolver behind {!Coordinator.tcp_transport} and {!Worker.listen}.
    @raise Invalid_argument on an unknown host or one with no address. *)

val connect :
  ?retries:int -> ?retry_delay_s:float -> ?max_delay_s:float ->
  Unix.sockaddr -> Unix.file_descr
(** Dial [addr] (TCP or Unix domain, inferred from the sockaddr),
    retrying transient failures — refused, absent path, reset,
    unreachable, timed out — up to [retries] (default 0) extra attempts
    with {!backoff_delay_s} between them, salted per connection.  Returns
    the connected close-on-exec descriptor.
    @raise Unix.Unix_error when the last attempt fails (or immediately on
    a non-transient error). *)
