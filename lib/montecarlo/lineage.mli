(** The one lineage decomposer, in the spirit of Koch & Olteanu's ws-tree
    decompositions: normalization plus one cached walk that compiles a DNF
    into a decision DAG.  Two consumers evaluate that DAG — {!exact} over
    rationals with no fuel bound (the exact [conf] of Theorem 3.4) and
    {!Compile.compile} over floats with bounded Shannon fuel (the
    approximate path of Section 4).

    A DNF here is a list of {!Pqdb_urel.Assignment} clauses over the
    independent W-table variables; its probability is the weight of the union
    of the clauses' world sets. *)

open Pqdb_urel

type packed = {
  vars : Wtable.var array;
      (** local id -> W variable, ascending: exactly the variables the
          clauses bind *)
  bits : int;  (** the bit width of the largest value the clauses bind *)
  clauses : int array array;
      (** each a sorted array of packed literals [(local lsl bits) lor
          value] *)
}
(** A packed clause set, in any order. *)

type t = private packed
(** The canonical lineage value: a packed set whose clauses are normalized
    ({!normalize}'s rules), so it is a pure function of the clause set —
    two lists with the same clause set give structurally equal values. *)

val pack : Assignment.t list -> packed
(** The one packer: the clauses in list order, duplicates and empty ones
    included, over the sorted table of every variable they bind.
    @raise Invalid_argument when a clause binds a negative value or a
    variable id too large to pack beside the values. *)

val of_packed : packed -> t
(** The one normalizer on a copy of [p]'s clauses ([p] is left as it is),
    then a renumbering onto exactly the variables and value width of the
    kept clauses when some clause was dropped. *)

val of_clauses : Assignment.t list -> t
(** [of_packed (pack clauses)], without the copy. *)

val to_clauses : packed -> Assignment.t list
(** The clauses unpacked, in their packed order. *)

val normalize : Assignment.t list -> Assignment.t list
(** [to_clauses (of_clauses clauses)], and a list of at most one clause as
    it is.  Deduplicate (structural equality), collapse to [[Assignment.empty]] when
    some clause is empty (trivially true), and drop subsumed clauses: [b] is
    redundant when every binding of some other clause [a] is a binding of [b].
    The output is sorted by [Assignment.compare], so it is canonical: two
    lists with the same clause set normalize to the same list.  Subsumption
    is skipped above a size cap of 512 clauses (quadratic pass); the result is
    then still equivalent, just possibly redundant. *)

(** {2 The decision DAG} *)

type 'a node =
  | Const of 'a  (** a closed-form probability *)
  | Res of int  (** residual [i], left for the sampler *)
  | Sum of ('a * int) array
      (** [Σ P(v = x)·child]: the branches of an expansion on one variable,
          [x] ascending.  The branches are mutually exclusive events. *)
  | IndepOr of int array
      (** [1 − Π (1 − child)]: variable-disjoint, hence independent,
          components. *)
(** Children are indices of earlier nodes. *)

type 'a arith = {
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  complement : 'a -> 'a;  (** [1 − p] *)
  prob : Wtable.var -> int -> 'a;  (** [P(v = x)] *)
}
(** The number type a DAG is built over. *)

val float_arith : Wtable.t -> float arith
(** Floats, with [prob] read from {!Wtable.prob_float}: what
    {!Compile} decomposes over and {!Dnf} weighs clauses with. *)

val clause_weight : 'a arith -> packed -> int array -> 'a
(** The weight of one clause over [p]'s table, multiplied out from [one]
    in ascending variable order, as {!Assignment.weight} and
    {!Assignment.weight_float} do. *)

type 'a dag = {
  nodes : 'a node array;
      (** topologically ordered — every child before its parents — and
          holding only nodes reachable from the root, which is the last
          one.  A node reached along several paths is stored once. *)
  residuals : int array array array;
      (** per {!Res} index: its normalized clause set over the table of
          [clauses], in the order the walk first reached it *)
  clauses : t;  (** the lineage decomposed *)
}

val decompose : ?fuel:int -> 'a arith -> Wtable.t -> t -> 'a dag
(** Decompose the DNF by one policy, tried in order at
    every clause set of two or more clauses:
    {ol
    {- two or more variable-connected components (union-find over the
       clauses, in first-occurrence order) become an {!IndepOr};}
    {- a variable bound in every clause (smallest W id) is expanded into a
       {!Sum} for free — each branch strictly shrinks every surviving
       clause;}
    {- otherwise the variable in the most clauses (smallest W id on ties)
       is the pivot of a Shannon {!Sum}, [P = Σₓ P(v = x)·P(F | v = x)],
       which charges its domain size plus the clause count to [fuel].}}
    Once [fuel] (default unbounded) is spent, a set not decomposed yet
    becomes a {!Res}.  The empty set is [Const zero] and a single clause
    the product of its bindings' probabilities.

    Every normalized set is cached for the duration of the call, so a set
    reached along several paths is decomposed once and shares its node; a
    cache hit costs no fuel, so [fuel] bounds the number of {e distinct}
    Shannon expansions.  A {!Sum} or {!IndepOr} whose children are all
    constants folds into one {!Const}, computed in the order an evaluation
    of the unfolded node uses.  A DNF that normalizes to at most one clause
    returns before it takes a workspace.

    {b Workspace.}  The cache and the split and conditioning scratch live
    in a workspace that a walk takes for its duration and that the next
    walk of the same domain reuses.  A walk takes its domain's workspace
    when no other walk holds it — walks of several systhreads of one domain
    can overlap — and builds a fresh one otherwise, so calls from any
    number of domains and threads are safe.  The workspace is released
    however the walk ends, exception included: the walk's cache entries are
    overwritten and the per-variable scratch restored, so the next walk
    starts from nothing and builds the same DAG as a fresh process.  That
    costs the walk's own entries, not the table's capacity, and a table or
    scratch array that grew past a size bound is dropped instead, so one
    huge walk does not pin it.  The cache maps a set to an entry number
    and the walk keeps each entry's result itself, so one workspace serves
    every number type.  The reason is the minor GC: a batch-shaped DNF
    caches about a thousand sets, and a fresh table per walk grows its
    arrays in the major heap, where every set stored is a remembered-set
    entry — the next minor collection then promotes every set and result
    of every walk since the last one, dead or not.  Overwritten on
    release, the reused arrays hold nothing young when a minor collection
    reads them.  The node buffer and the results stay per walk: they are
    typed, and the results are kept in arrays small enough for the minor
    heap.

    {b What a walk costs before its first split.}  Most lineage an aconf
    over a join compiles is two or three clauses of one or two bindings,
    so the fixed cost per call matters as much as the walk.  Before its
    first split a walk pays nothing for its input: the packing pass (the
    list copied into an array, the bound variables gathered into one
    array, heap-sorted and deduplicated into local ids, the values' bit
    width, then each clause packed by binary search, with no closure) and
    the one normalization of the packed clauses were paid once, when the
    value was built.  The walk itself pays: taking and fitting the
    workspace (one compare-and-set, no allocation once it has grown); and
    one builder record.  The node buffer and the result chunks are
    allocated at their first use, so a walk that folds into one constant
    allocates neither, and the workspace is released on both arms of a
    [match … with exception], without a closure.  [test_montecarlo]
    bounds the minor words per {!Compile.compile} of the seed-1
    query-aconf lineages that keep two or more clauses at 199 (they read
    149), packing and normalization included.

    The walk keeps every clause set normalized, and {e every set of at most
    the subsumption cap (512 clauses) is minimal}: sorted, deduplicated,
    no clause subsuming another.  The root is normalized, a part of a
    minimal set is minimal, and each branch below is normalized again.
    Two shortcuts rest on that invariant and change no output:
    {ul
    {- conditioning a minimal set on [v = x] needs no sort and no
       quadratic pass.  The shrunk clauses [t − (v = x)] keep their
       parents' order and stay minimal among themselves, and no clause
       that does not bind [v] can equal or subsume one of them (it would
       have subsumed the parent).  So the result is the untouched clauses
       minus those a shrunk clause subsumes, merged with the shrunk ones
       (see {!condition_flat});}
    {- a component a split found is connected, and the walk below a
       component never sees another component's variables, so the
       variable counts its parent's split left are still its own: its
       pivot is read off them, with no count pass and no union-find.  The
       exception is a component of a set above the cap: it is normalized
       before it is expanded, and if that dropped a clause — possibly its
       only link — it is split in full.}}

    {b What a node costs.}  A split of a set that is not a known
    component is one pass over its literals: each variable is counted
    (the counts carry the split's stamp, so no pass resets them) and the
    clauses sharing it are unioned with one [find] per literal.  There are
    as many components as clauses minus unions, and only several
    components cost a second pass, over the clauses, to number and gather
    them.  The pivot is one read-only pass over the counts.  An expansion
    locates its pivot in each clause once, by binary search, for all its
    branches, so every branch is conditioned before the first is walked.
    A branch takes one pass to list its shrunk clauses, tests each
    untouched clause only against the shrunk ones no longer than it (the
    literal masks are computed at first use and shared by the branches)
    and writes its set in one merge walk.

    Deterministic: the DAG is a pure function of (W table, clause set,
    fuel), and each residual is kept packed, as the walk conditioned it. *)

val exact : Wtable.t -> Assignment.t list -> Pqdb_numeric.Rational.t
(** Exact confidence (the #P-hard operation of Theorem 3.4): {!decompose}
    of {!of_clauses} over rationals with no fuel bound, which folds the
    whole DAG into one constant.  Still exponential in the worst case, as it must be, but
    independent components, free disjoint expansions and shared sub-DNFs
    keep structured lineage polynomial. *)

(** {2 The conditioning kernel} *)

val condition_flat : bits:int -> int array array -> int -> int -> int array array
(** [condition_flat ~bits set v x] is [set | v = x], normalized, for a
    normalized [set] of flat clauses — sorted arrays of packed literals
    [(v lsl bits) lor x] — in the order {!decompose} keeps them (shorter
    first, then lexicographic).  This is the step every expansion of
    {!decompose} takes: incremental within the subsumption cap, where
    [set] is minimal, and a from-scratch normalization of the conditioned
    clauses above it.  Exposed so tests can check it against a
    from-scratch normalization everywhere. *)
