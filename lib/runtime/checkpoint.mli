(** Append-only, CRC-guarded journals for crash-recoverable batch runs.

    A journal is a text file: a magic header line followed by one framed
    record per line, [r <crc32-hex> <payload>].  Records are appended and
    fsync'd one at a time, so a process killed at any point leaves a journal
    whose every record but possibly the last is intact.  Reading applies a
    {e torn-tail} rule: a final line that is incomplete (no newline) or fails
    its CRC is silently dropped — exactly the damage a crash mid-append can
    cause — while any damage {e before} the tail (a bit-flipped record, a
    record split in two) raises the typed
    {!Pqdb_error.Malformed_input} naming the journal path and the 0-based
    record index, because mid-file corruption can never be produced by a
    crash and must not be silently skipped.

    Payloads must be newline-free; framing does not escape.  The layer knows
    nothing about payload contents — shard records, their fingerprints and
    duplicate policy live in [Montecarlo.Shard].

    The [checkpoint.write] fault point fires inside {!append}, letting tests
    and CI drive the journal down its failure path. *)

type writer

val magic : string
(** First line of every journal. *)

val crc32 : string -> int32
(** IEEE CRC-32 of a string — the checksum used by the journal frames, the
    distrib protocol and the binary storage segments. *)

val crc32_bytes : Bytes.t -> int -> int -> int
(** [crc32_bytes b pos len] is {!crc32} of [len] bytes of [b] from [pos],
    as an [int] in [\[0, 2{^32})] — how a wire frame checksums its payload
    in place, without copying it out.
    @raise Invalid_argument when the range is outside [b]. *)

val crc32_hex : string -> string
(** Lower-case 8-hex-digit rendering of {!crc32} (exposed so tests can
    craft corrupt and conflicting journals, and callers can fingerprint
    payload components). *)

val read : string -> string list
(** Validated record payloads of a journal, torn tail dropped.  A missing or
    empty file reads as [[]] (a fresh journal).
    @raise Pqdb_error.Error ([Malformed_input]) on a bad header or on
    corruption before the final record. *)

val open_writer : ?resume:bool -> string -> writer * string list
(** Open a journal for appending.  With [~resume:true] the existing file is
    validated first: its torn tail (if any) is truncated away so subsequent
    appends start on a clean record boundary, and the surviving payloads are
    returned.  With [resume] false (the default) the file is truncated to
    empty.  Either way the header is (re)written when the valid prefix is
    empty, and the returned payload list is what a reader would have seen.
    @raise Pqdb_error.Error as {!read} when resuming a corrupt journal.
    @raise Sys_error / Unix.Unix_error on I/O failure. *)

val append : writer -> string -> unit
(** Frame, write, flush and fsync one record.
    @raise Invalid_argument when the payload contains a newline.
    @raise Pqdb_error.Error ([Injected "checkpoint.write"]) under an armed
    fault point; I/O errors surface as exceptions for the caller's retry
    policy. *)

val close : writer -> unit
(** Flush and close.  Idempotent. *)
