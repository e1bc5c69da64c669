(** Behavioral fault-injection registry.

    A fault point is a named site in the engine (see {!known}:
    ["karp_luby.estimator"], ["pool.task"], ["pool.spawn"],
    ["udb_io.wtable"], ["udb_binary.load"], ["checkpoint.write"],
    ["shard.run"], ["distrib.send"], ["distrib.recv"], ["distrib.spawn"],
    ["distrib.tcp.drop"], ["distrib.tcp.stall"], ["distrib.tcp.dup"],
    ["serve.accept"], ["serve.session"]) that calls {!fire}, {!check} or
    {!should_fail}.  Nothing happens unless the point is {e armed} —
    programmatically via {!arm}, or through the [PQDB_FAULTPOINTS]
    environment variable, a comma-separated list of
    [name[:count][@mode]] entries read once at first use, where [count]
    bounds how many times the site fires (default: forever) and [mode]
    selects the {e behavior}:

    - [raise] (default) — raise [Pqdb_error.Error (Injected name)];
    - [delay:<ms>] — sleep that many milliseconds, then proceed normally;
    - [stall] — block until the site is disarmed (or any registry
      mutation), capped at {!set_stall_cap_s} seconds;
    - [torn] — at frame/record-writing sites, emit a truncated write and
      then raise [Injected]; elsewhere it degrades to [raise].

    Unknown site names are armed anyway (tests use synthetic names) but
    warned about on stderr once — in an env spec they are almost always
    typos that would otherwise never fire.

    The unarmed fast path is one atomic load, so instrumented hot paths stay
    free when no injection is configured.  Arming/consuming is serialized by
    a mutex and safe to use from pool worker domains. *)

type mode = Raise | Delay of float  (** seconds *) | Stall | Torn

val mode_of_string : string -> (mode, string) result
(** Parse the [@mode] suffix syntax: ["raise"], ["delay:<ms>"], ["stall"],
    ["torn"].  [Error] carries a human-readable reason. *)

val mode_to_string : mode -> string

type spec = {
  site : string;
  count : (int option, string) result;
      (** [Ok None] when absent; [Error] unless a positive integer *)
  mode : (mode, string) result;  (** [Ok Raise] when absent *)
}

val parse_spec : string -> spec
(** Split one [site[:count][@mode]] entry into its parts, each trimmed and
    each parsed on its own, so a caller chooses its policy per part:
    [PQDB_FAULTPOINTS] warns and falls back to the default, the CLI's
    [--faultpoints] rejects the entry. *)

val known : string list
(** Every site instrumented in the tree, for CLI/tooling validation and
    [--help] discoverability.  Arming an unknown name is legal (it simply
    never fires) but almost always a typo — front ends should check against
    this list and say so. *)

val arm : ?count:int -> ?mode:mode -> string -> unit
(** Arm [name].  [count] bounds how many times it fires (default:
    unlimited); [mode] selects the behavior (default: {!Raise}). *)

val disarm : string -> unit
(** Disarm [name] and release any thread blocked in a [Stall] at any
    site. *)

val reset : unit -> unit
(** Clear every programmatic arm, then re-apply [PQDB_FAULTPOINTS].
    Releases stalled threads. *)

val armed : unit -> string list
(** Names currently armed (for diagnostics; does not consume shots). *)

val set_stall_cap_s : float -> unit
(** Upper bound (seconds, default 2.0) on how long a [Stall] blocks when
    nobody disarms it — the backstop that keeps env-armed CI runs finite.
    Non-positive values are ignored. *)

val check : string -> mode option
(** [Some mode] iff [name] is armed, consuming one shot.  For sites that
    implement a mode's behavior themselves (torn writers); everyone else
    should use {!fire}. *)

val act : string -> mode -> unit
(** Perform [mode]'s behavior for site [name]: sleep, stall, or raise.
    Use after {!check} at sites that special-case only some modes. *)

val should_fail : string -> bool
(** [true] iff [name] is armed, consuming one shot.  For sites that degrade
    in place rather than raise.  Ignores the armed mode. *)

val fire : string -> unit
(** Consume one shot of [name] if armed and perform its behavior: [Raise]
    and [Torn] raise [Pqdb_error.Error (Injected name)], [Delay] sleeps,
    [Stall] blocks until release or cap. *)
