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

val normalize : Assignment.t list -> Assignment.t list
(** Deduplicate (structural equality), collapse to [[Assignment.empty]] when
    some clause is empty (trivially true), and drop subsumed clauses: [b] is
    redundant when some other clause [a] has [Assignment.subsumes a b].
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

type 'a dag = {
  nodes : 'a node array;
      (** topologically ordered — every child before its parents — and
          holding only nodes reachable from the root, which is the last
          one.  A node reached along several paths is stored once. *)
  residuals : Assignment.t list array;
      (** per {!Res} index: its normalized clause set, in the order the walk
          first reached it *)
  clauses : Assignment.t list;  (** the normalized DNF ({!normalize}) *)
}

val decompose : ?fuel:int -> 'a arith -> Wtable.t -> Assignment.t list -> 'a dag
(** Normalize the DNF and decompose it by one policy, tried in order at
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
    first split a walk pays: the normalization of the input list and its
    round trip through an array; one flattening pass with no closure (the
    bound variables gathered into one array, heap-sorted and
    deduplicated into local ids, the values' bit width, then each clause
    packed by binary search); taking and fitting the workspace (one
    compare-and-set, no allocation once it has grown); and one builder
    record.  The node buffer and the result chunks are allocated at their
    first use, so a walk that folds into one constant allocates neither,
    and the workspace is released on both arms of a [match … with
    exception], without a closure.  [test_montecarlo] bounds the minor
    words per {!Compile.compile} of the seed-1 query-aconf lineages that
    keep two or more clauses at 221 (they read 163).

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
    fuel) — the order and duplicates of the input list do not matter.
    @raise Invalid_argument when a clause binds a negative value or a
    variable id too large to pack beside the DNF's values. *)

val exact : Wtable.t -> Assignment.t list -> Pqdb_numeric.Rational.t
(** Exact confidence (the #P-hard operation of Theorem 3.4): {!decompose}
    over rationals with no fuel bound, which folds the whole DAG into one
    constant.  Still exponential in the worst case, as it must be, but
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
