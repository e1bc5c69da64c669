(** Arbitrary-precision signed integers.

    Implemented from scratch (the sealed build environment has no [zarith])
    as sign-magnitude numbers over base-2{^30} limbs.  The probabilistic
    database needs exact integer arithmetic to represent world probabilities
    such as 1/6 without rounding; see {!Rational}.

    All operations are purely functional. *)

type t

(** {1 Constructors} *)

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] is the big integer with value [n].  Total for every native
    [int], including [min_int]. *)

val of_string : string -> t
(** [of_string s] parses an optionally signed decimal numeral.
    @raise Invalid_argument on the empty string or non-digit characters. *)

(** {1 Observers} *)

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits a native [int]. *)

val to_float : t -> float
(** Nearest-float conversion; loses precision beyond 53 bits as usual. *)

val to_string : t -> string
(** Decimal rendering, e.g. ["-1234567890123456789"]. *)

val pp : Format.formatter -> t -> unit

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|] and [r]
    carrying the sign of [a] (truncated division, like OCaml's [/] and
    [mod]).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor of the absolute values; [gcd zero zero = zero]. *)

val shift_left : t -> int -> t
(** [shift_left x n] is [x * 2^n]; [n >= 0]. *)

val shift_right : t -> int -> t
(** [shift_right x n] is [x / 2^n] truncated toward zero; [n >= 0]. *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0].
    @raise Invalid_argument on negative exponents. *)

val num_bits : t -> int
(** Number of significant bits of the magnitude; [num_bits zero = 0]. *)

(** {1 Infix aliases} *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
