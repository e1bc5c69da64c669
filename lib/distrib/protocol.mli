(** Wire protocol between the distributed coordinator and its workers.

    One message per line: a fixed-width header carrying the payload length
    and a CRC-32 of the payload, then the payload itself ({!Pqdb_montecarlo.Shard}
    outcome records ride inside verbatim, so their ["%h"] floats stay
    bit-exact end to end).  The framing makes worker death legible: a clean
    EOF at a frame boundary decodes to [None], while a torn header, a short
    payload, a missing terminator or a CRC mismatch all raise the same typed
    [Malformed_input] the checkpoint journal uses — a coordinator never has
    to guess whether a half-written frame was meaningful.

    Reads and writes fire the ["distrib.recv"] / ["distrib.send"] fault
    points ({!Pqdb_runtime.Faultpoint}), so CI can drive the coordinator
    down its worker-loss paths without actually killing processes. *)

type msg =
  | Hello of {
      meta : string;
      probe : string;
      source : (string * string) option;
    }
      (** Handshake, both directions.  Worker → coordinator: the
          {!Pqdb_montecarlo.Shard.meta_payload} of the run it reconstructed,
          plus an RNG probe (a ["%h"] draw from a copy of its batch seed).
          The coordinator compares both against its own for literal
          equality — a worker whose parameters or seed drifted would
          compute well-formed but wrong shards, so it is refused at
          handshake instead.  Coordinator → worker (sent first, on spawn):
          the same fields, with [source = Some (db_path, relation)] when
          the run reads a stored database — a worker spawned without data
          arguments loads that path (one read-only [.udbb] mapping shared
          by the whole fleet via the page cache) instead of regenerating
          from a [--gen] seed.  Source fields are percent-encoded on the
          wire; [None] marks a synthetic-workload run. *)
  | Order of {
      index : int;
      epoch : int;
      fp : string;
      trials : int option;
      deadline_s : float option;
    }
      (** Coordinator → worker: solve shard [index].  [epoch] stamps the
          lease under which the order was issued — a fresh epoch is drawn
          every time a shard is (re)assigned, so an outcome arriving after
          its lease was superseded is recognizable as late rather than
          wrong.  [fp] is the data fingerprint the worker must re-derive
          from its own clause sets; [trials]/[deadline_s] are the shard's
          budget slice ([None] = unlimited — the bit-identical no-budget
          path). *)
  | Outcome of { index : int; epoch : int; payload : string }
      (** Worker → coordinator: a completed shard's
          {!Pqdb_montecarlo.Shard.to_payload} record, bit-exact, echoing
          the [index]/[epoch] of the order that requested it so ingestion
          can dedup duplicated or superseded deliveries (first-wins). *)
  | Failed of { index : int; epoch : int; detail : string }
      (** Worker → coordinator: shard [index] (under lease [epoch]) raised;
          the worker survives and can take further orders.  [detail] is
          the rendered error. *)
  | Lease of { ttl_s : float }
      (** Coordinator → worker, granted at admission: the liveness lease.
          A worker must be heard from (heartbeat or any frame) within
          every [ttl_s] window or the coordinator treats its lease as
          expired and its in-flight shard as reassignable — even if the
          socket still looks open (half-open links).  A worker whose
          heartbeat interval cannot renew the lease in time clamps it
          down and warns. *)
  | Heartbeat  (** Worker liveness tick (also sent during long solves). *)
  | Shutdown  (** Coordinator → worker: drain and exit cleanly. *)
  | Query of { id : int; spec : string }
      (** Client → serve daemon: run the query described by [spec] (the
          {!Pqdb_serve} request language, e.g. ["conf R eps=0.05"]).  [id]
          is echoed on the reply so a client can pipeline requests.  The
          spec is percent-encoded on the wire. *)
  | Reply of { id : int; ok : bool; body : string }
      (** Serve daemon → client: the outcome of [Query] [id].  [ok] means
          the query ran; [body] is its (possibly multi-line, ["%h"]-exact)
          output, or the rendered error when [not ok].  Percent-encoded on
          the wire, so the bytes survive the single-line framing. *)

val encode : msg -> string
(** The exact framed bytes {!write_fd} emits (terminating newline
    included). *)

val write_fd : ?timeout_s:float -> Unix.file_descr -> msg -> unit
(** Frame and write one message directly over a file descriptor (no
    channel buffering), with an optional whole-frame deadline enforced by
    [select] — works on pipes, which ignore [SO_SNDTIMEO]/[SO_RCVTIMEO].
    Fires ["distrib.send"]; the [torn] mode emits half the frame and raises
    [Injected].  Write errors (e.g. [EPIPE] from a dead peer) propagate.
    @raise Pqdb_runtime.Pqdb_error.Error [(Timeout _)] when the deadline
    passes before the frame is fully written (site ["distrib.send"]). *)

val read_fd : ?timeout_s:float -> Unix.file_descr -> msg option
(** Read one framed message directly off a file descriptor, with an
    optional whole-frame deadline.  [None] on a clean EOF before the first
    header byte; EOF or deadline expiry mid-frame raise.  Fires
    ["distrib.recv"] first.
    @raise Pqdb_runtime.Pqdb_error.Error [(Timeout _)] (site
    ["distrib.recv"]) when the deadline passes, or [(Malformed_input _)]
    (source ["distrib-protocol"]) on a torn or corrupt frame: partial
    header or payload, bad length, CRC mismatch, unknown tag, or field
    syntax. *)

val read_fd_frame : ?timeout_s:float -> Unix.file_descr -> msg option
(** {!read_fd} with frame-boundary patience: the wait for the first header
    byte is unbounded (an idle peer may stay quiet forever), and
    [timeout_s] bounds only the remainder of the frame once it starts.
    This is what a worker reads orders with — between orders it waits as
    long as the coordinator pleases, but a torn or wedged frame cannot
    leave it blocked forever (which would look like a live worker, since
    heartbeats run on their own thread).  Same failure surface as
    {!read_fd}. *)

(** {2 TCP fault wrappers}

    The remote-worker path speaks through these variants, which add three
    network fault sites in front of the plain fd I/O (whose own
    ["distrib.send"]/["distrib.recv"] sites still fire):
    ["distrib.tcp.drop"] shuts the socket down and raises [Injected] (a
    dropped connection — the peer sees EOF), ["distrib.tcp.stall"] acts
    its armed mode before the I/O (armed [stall] models a half-open link:
    the call blocks, bounded by the stall cap, while the socket looks
    alive), and ["distrib.tcp.dup"] makes {!tcp_write_fd} emit the frame
    twice (a duplicated delivery — receivers must be idempotent). *)

val tcp_write_fd : ?timeout_s:float -> Unix.file_descr -> msg -> unit
(** {!write_fd} behind the TCP fault sites; ["distrib.tcp.dup"] writes
    the frame twice. *)

val tcp_read_fd : ?timeout_s:float -> Unix.file_descr -> msg option
(** {!read_fd} behind the TCP fault sites. *)

val tcp_read_fd_frame : ?timeout_s:float -> Unix.file_descr -> msg option
(** {!read_fd_frame} behind the TCP fault sites. *)
