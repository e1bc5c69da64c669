(** First-class integrity constraints for conditioning (the [assert]
    operator of Koch & Olteanu, "Conditioning Probabilistic Databases").

    A constraint restricts the world set; confidences are then renormalized
    over the surviving worlds.  Three forms:

    {ul
    {- [Fd] — a functional dependency [key → determined] on a base table,
       compiled to its egd {e violation} query (Theorem 4.4) by the
       conditioning layer;}
    {- [Denial q] — a Boolean (nullary is not required; only emptiness is
       tested) positive query that must return {e no} tuples in a surviving
       world;}
    {- [Holds q] — a positive query that must return {e at least one} tuple
       in a surviving world.}}

    Constraint queries live in the positive, confidence-free fragment: no
    [minus], no [conf]/[aconf]/[aselect], no [repairkey], no [poss]/[cert].
    {!validate} enforces this. *)

type t =
  | Fd of { table : string; key : string list; determined : string list }
  | Denial of Ua.t
  | Holds of Ua.t

val fd : table:string -> key:string list -> determined:string list -> t
(** @raise Invalid_argument on an empty key or determined list. *)

val validate : t -> unit
(** @raise Invalid_argument when a member query falls outside the positive
    confidence-free fragment (see above). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders in the concrete [assert] syntax of the query language:
    [fd[K -> D](table)], [empty(q)], [(q)]. *)

val to_string : t -> string
