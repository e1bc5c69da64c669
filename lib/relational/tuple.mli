(** Tuples: positional value vectors interpreted against a {!Schema}. *)

type t

val of_list : Value.t list -> t
val of_array : Value.t array -> t
val to_list : t -> Value.t list

val arity : t -> int
val get : t -> int -> Value.t

val project : t -> int list -> t
(** Select positions in the given order. *)

val concat : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Compatible with {!equal} (built on {!Value.hash}). *)

module Table : Hashtbl.S with type key = t
(** Hash tables keyed directly on tuples — the join/group keys of the hash
    joins in [Algebra] and [Translate].  Keys are compared with {!equal}, so
    cross-type numerically-equal values match and no string rendering is
    involved. *)

val pp : Format.formatter -> t -> unit
