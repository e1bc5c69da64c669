(** U-relations: representation relations [U_R(D, Ā)] pairing a condition
    (partial assignment) with a data tuple (Section 3, Figure 1).

    A tuple [t̄] is in relation [R] of possible world [f*] iff some
    [⟨f, t̄⟩ ∈ U_R] has [f] consistent with [f*].  Set semantics on the
    [(D, tuple)] pairs, stored as one array sorted tuple first, then by
    condition, so a tuple's clauses are adjacent.  Costs are in rows [n]. *)

open Pqdb_relational

type row = Assignment.t * Tuple.t
type t

val make : Schema.t -> row list -> t
(** Deduplicates rows: O(n) if they already ascend strictly; if only their
    tuples ascend, each run of equal tuples is sorted by condition, on its
    own; otherwise a stable O(n log n) sort of the whole array.  Either way
    the first of equal rows is kept.
    @raise Invalid_argument on arity mismatches. *)

val of_array : Schema.t -> row array -> t
(** {!make} on an array, which the relation takes over: it may be sorted in
    place and kept as the relation's rows, so the caller must not use it
    afterwards.  No list is built. *)

val of_relation : Relation.t -> t
(** A complete relation as a U-relation: every condition empty. *)

val schema : t -> Schema.t
val rows : t -> row list
(** Sorted by tuple, then condition. *)

val row : t -> int -> row
(** [row u i] is the [i]th of {!rows}, counting from 0; O(1).
    @raise Invalid_argument unless [0 <= i < size u]. *)

val size : t -> int
(** Number of representation rows (the input size for the data-complexity
    statements of Section 3). *)

val is_empty : t -> bool

val is_complete_rep : t -> bool
(** All conditions empty — the relation is certain {e syntactically}. *)

val to_relation : t -> Relation.t
(** Forget conditions: the relation containing all possible tuples.  For a
    complete representation this is the represented relation itself. *)

val possible_tuples : t -> Tuple.t list
(** Distinct data tuples (poss), ascending; O(n). *)

val clauses_for : t -> Tuple.t -> Assignment.t list
(** The DNF [F = {f | ⟨f, t̄⟩ ∈ U_R}] whose weight is the tuple's confidence
    (Section 4), in descending condition order; O(log n + |F|). *)

val clauses_by_tuple : t -> (Tuple.t * Assignment.t list) list
(** Every possible tuple with its DNF, in the {!possible_tuples} order and
    ascending condition order: one O(n) scan, no hashing or sorting. *)

val fold_runs : (Tuple.t -> Assignment.t list -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_runs f u acc] applies [f] to each possible tuple and its DNF, as
    {!clauses_by_tuple} lists them but the last tuple first, so a fold that
    conses builds an ascending list.  A tuple is its run's first row's. *)

val variables : t -> Wtable.var list
(** Variables mentioned by any condition, deduplicated, sorted. *)

val filter : (row -> bool) -> t -> t
(** O(n), no sort; the input itself, with nothing allocated, when [p]
    keeps every row.  {!map_rows} costs what {!make} does. *)

val map_rows : Schema.t -> (row -> row) -> t -> t

val union : t -> t -> t
(** One merge walk, O(n) with no sort; where both sides hold equal rows
    (equal tuples may differ in representation) the left one is kept.
    @raise Invalid_argument unless schemas agree. *)

val pp : Format.formatter -> t -> unit
(** Prints the rows condition first, then tuple. *)
