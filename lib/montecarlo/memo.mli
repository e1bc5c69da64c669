(** Compiled-lineage cache: skip {!Compile.compile} for clause sets the
    engine has seen before.

    {!Compile.compile} is a pure function of (W table, clause set, fuel), so
    its trees are safe to share across queries, sessions and threads: the
    serve daemon keys a bounded LRU on a {e canonical fingerprint} of those
    three inputs and answers repeated or incremental queries straight from
    {!Compile.solve}, paying compilation once per
    distinct lineage.

    {2 Canonicalization}

    Two clause lists that denote the same DNF must hit the same entry.  The
    cache has one key per lookup, hit or miss: the canonical lineage
    ({!Lineage.of_clauses}: duplicates and subsumed clauses dropped,
    sorted) encoded as a compact binary string — LEB128 varints for each clause's binding count
    and (variable, value) pairs.  Permuted, duplicated and
    subsumption-equivalent clause lists meet at one key, and the encoding
    is injective: it decodes to exactly one input, so distinct inputs never
    share an entry.

    The encoded lineage is the {e clause code} ({!code}); a key is a short
    header — W-table uid and generation, fuel, salt — followed by that
    code.  The code depends on the clause set alone, so a caller asking
    about the same sets repeatedly (the serve daemon, per stored relation)
    builds each {!Lineage.t} and its code once and probes with {!find},
    which builds the header, looks up, and compiles a miss from the
    lineage it was given: the set is normalized once, not once per key and
    once more per compile.

    The key embeds the W table's identity and generation
    ({!Pqdb_urel.Wtable.uid} / {!Pqdb_urel.Wtable.generation}) and the
    compilation fuel: any table edit, or a different fuel, changes every
    key, so a stale tree can never be served.

    {2 Salted (conditioned) entries}

    A caller conditioning on a constraint set caches trees whose value
    depends on more than the tuple's own clauses — the conjoined lineage
    under the active constraints.  The optional [salt] (the constraint-set
    fingerprint, [Pqdb_conditioning.Constraint_set.fingerprint],
    possibly suffixed by which conjunct is cached) is folded into the
    key, length-prefixed so salt content cannot forge another key: entries
    with different salts never alias, and an unconditioned hit can never
    answer a conditioned query.  [build] then supplies the salted tree (a
    pure function of the clauses and the salt's context); without it the
    plain {!Compile.compile} of the clauses is cached.

    {2 Bit-identity}

    A hit returns the {e same} DAG a cold {!Compile.compile} of the same
    clause set would build (compilation reads the canonical lineage, so it
    is a function of the clause set, not of the list); solving it against the
    same RNG state yields bit-identical ["%h"] outputs.  The serve CI job
    [cmp]s warm against cold stdout to hold this line.

    All operations are thread-safe (one internal lock). *)

open Pqdb_urel

val default_entries : int
(** Default entry cap (compiled trees held), currently 256. *)

type t

val create : ?entries:int -> unit -> t
(** An empty cache holding at most [entries] compiled trees (least
    recently used evicted first).
    @raise Invalid_argument when [entries < 1]. *)

val capacity : t -> int

val fingerprint :
  ?fuel:int -> ?salt:string -> Wtable.t -> Assignment.t list -> string
(** The cache key: W-table uid + generation, fuel, the salt, and the
    normalized clause set, in a binary, injective encoding.  Equal exactly
    when those inputs are equal: so equal for permuted, duplicated or
    subsumption-equivalent clause lists, and different after any W-table
    edit, under a different fuel, or under a different salt. *)

val code : Lineage.t -> string
(** The clause code: the canonical lineage in the binary, injective
    encoding that a key ends with.  A pure function of the clause set
    (equal for permuted, duplicated or subsumption-equivalent lists). *)

val find :
  t ->
  ?fuel:int ->
  ?salt:string ->
  ?code:string ->
  ?build:(unit -> Compile.t) ->
  Wtable.t ->
  Lineage.t ->
  Compile.t
(** The cached {!Compile.of_lineage} (or, when [build] is given, the cached
    [build ()] — see {e Salted entries} above).  Every lookup builds its
    key from the header and the clause code — [code], when given, must be
    [Memo.code lineage] and saves the encoding; otherwise the lookup
    computes it.  A hit skips compilation; a miss compiles, inserts, and
    evicts the least recently used entry beyond capacity.  Either way the
    LRU is touched and the hit or miss is counted. *)

val find_or_compile :
  t ->
  ?fuel:int ->
  ?salt:string ->
  ?code:string ->
  ?build:(unit -> Compile.t) ->
  Wtable.t ->
  Assignment.t list ->
  Compile.t
(** {!find} of the list's {!Lineage.of_clauses}: the one place a listed
    clause set is packed and normalized on its way into the cache.  A
    given [code] saves only the encoding: a miss compiles the packed
    list. *)

type stats = {
  hits : int;  (** key hits: compilation skipped *)
  misses : int;  (** cold compiles *)
  evictions : int;  (** entries dropped by the LRU bound *)
  entries : int;  (** compiled trees currently held *)
}

val stats : t -> stats

val clear : t -> unit
(** Drop every entry (counters keep accumulating). *)
