(** Typed atomic values stored in relations.

    The algebra of the paper allows arithmetic in selection conditions and in
    the argument lists of π and ρ (Section 2), and the [conf] operator adds a
    probability-valued column [P].  We therefore support exact rationals as a
    first-class value type so that [conf] can report exact probabilities and
    the division [P1/P2] in Example 2.2 stays exact. *)

open Pqdb_numeric

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Rat of Rational.t

(** {1 Construction and printing} *)

val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t
val rat : Rational.t -> t
val of_ints : int -> int -> t
(** [of_ints n d] is the exact rational [n/d]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val parse : string -> t
(** Best-effort literal parsing used by the CSV loader and the query lexer:
    integers, then rationals ([n/d]), then floats, then booleans, falling back
    to strings. *)

(** {1 Ordering} *)

val compare : t -> t -> int
(** Total order.  Numeric values ([Int], [Rat], [Float]) compare by numeric
    value across constructors; other types compare within their constructor,
    with an arbitrary fixed order between type families. *)

val equal : t -> t -> bool

val hash : t -> int
(** Compatible with {!equal} across constructors: numeric values hash through
    their float image, so [Int 1], [Rat 1/1] and [Float 1.] (which are
    [equal]) hash alike.  This is the key used by the hash joins — unlike the
    former [to_string] keys it can neither miss a cross-type match nor be
    fooled by ambiguous concatenation. *)

(** {1 Numeric coercions} *)

val to_float_opt : t -> float option
val to_rational_opt : t -> Rational.t option
(** [None] for non-numeric values and for [Float]s (which would need a lossy
    reinterpretation — use {!to_float_opt} for those paths). *)

(** {1 Arithmetic}

    Numeric tower: [Int ⊂ Rat ⊂ Float].  [Int/Int] divides exactly into a
    [Rat]; any operation touching a [Float] returns a [Float].
    @raise Invalid_argument on non-numeric operands.
    @raise Division_by_zero accordingly. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
