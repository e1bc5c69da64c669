(** Bit-exact number printing without [Printf].

    [%h] is how every float the system persists or sends travels: batch
    and serve reply lines, journal records, handshake probes and wire
    budgets, so [float_of_string] reads back the very bits that were
    printed.  These writers append the same bytes as [Printf]'s ["%h"] and
    ["%d"] straight into a [Buffer], without the format interpreter or an
    intermediate string per number — a 128-line serve reply prints in about
    a third of the time [Printf.bprintf] takes. *)

val add_float : Buffer.t -> float -> unit
(** [add_float buf x] appends [Printf.sprintf "%h" x]: ["0x1.8p+1"] for
    3, ["0x0p+0"] / ["-0x0p+0"] for ±0, ["0x0.0000000000001p-1022"] for
    the smallest subnormal, ["infinity"], ["-infinity"], ["nan"] and
    ["-nan"] (a NaN keeps its sign bit; its payload is not printed). *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n], [min_int] included. *)

val to_string : float -> string
(** [Printf.sprintf "%h"], through {!add_float}. *)
