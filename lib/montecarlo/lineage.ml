open Pqdb_urel

(* Flat clauses.  A clause is a sorted [int array] of packed literals
   [(var lsl bits) lor value], with [bits] wide enough for every value the
   DNF binds.  Ascending packed order is ascending (var, value) order, so
   "shorter first, then lexicographic" ([compare_clause]) is exactly the
   order [Assignment.compare] gives the same clauses.

   The kernel below runs once per DAG node, so it is written with loops
   over arrays and per-builder scratch: no closure or list is allocated per
   clause or literal. *)

let compare_clause (a : int array) (b : int array) =
  let n = Array.length a in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c
  else begin
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    if !i = n then 0 else Int.compare a.(!i) b.(!i)
  end

(* One bit per literal but the one at position [j]: [a ⊆ b] implies
   [flat_mask a ⊆ flat_mask b]. *)
let mask_without (c : int array) j =
  let m = ref 0 in
  for t = 0 to Array.length c - 1 do
    if t <> j then m := !m lor (1 lsl (c.(t) mod 63))
  done;
  !m

let flat_mask c = mask_without c (-1)

(* [without a skip ⊆ b], without building [without a skip]: a merge walk
   over the sorted literals, O(|a| + |b|). *)
let subset_without (a : int array) skip (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < la do
    if !i = skip then incr i
    else if !j = lb then ok := false
    else
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin
        incr i;
        incr j
      end
      else if x > y then incr j
      else ok := false
  done;
  !ok

(* Quadratic-pass guard: subsumption is O(n² · clause length); above this
   size we keep possibly-redundant clauses rather than stall compilation. *)
let subsumption_cap = 512

(* The one clause normalizer: the canonical form of [cs], which it sorts in
   place (and returns when it keeps every clause): sorted, deduplicated,
   [[|[||]|]] when some clause is empty, and — up to the cap — only the
   minimal clauses.  A strict subsumer is shorter, so it sorts earlier:
   keeping a clause iff no earlier kept clause subsumes it leaves exactly the
   clauses nothing else subsumes, in sorted order.  The mask test rejects
   most pairs before the merge walk. *)
let normalize_flat (cs : int array array) =
  let n = Array.length cs in
  if n <= 1 then cs
  else begin
    Array.stable_sort compare_clause cs;
    if Array.length cs.(0) = 0 then [| cs.(0) |]
    else begin
      let k = ref 1 in
      for t = 1 to n - 1 do
        if compare_clause cs.(t) cs.(!k - 1) <> 0 then begin
          cs.(!k) <- cs.(t);
          incr k
        end
      done;
      let n = !k in
      if n <= subsumption_cap then begin
        let masks = Array.make n 0 in
        k := 0;
        for j = 0 to n - 1 do
          let c = cs.(j) in
          let mj = flat_mask c in
          let i = ref 0 in
          while
            !i < !k
            && not (masks.(!i) land lnot mj = 0 && subset_without cs.(!i) (-1) c)
          do
            incr i
          done;
          if !i = !k then begin
            cs.(!k) <- c;
            masks.(!k) <- mj;
            incr k
          end
        done
      end;
      if !k = Array.length cs then cs else Array.sub cs 0 !k
    end
  end

(* Position of the literal on local variable [v] in clause [c], or -1. *)
let find_var bits (c : int array) v =
  let lo = ref 0 and hi = ref (Array.length c) and at = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let u = c.(mid) lsr bits in
    if u = v then begin
      at := mid;
      lo := !hi
    end
    else if u < v then lo := mid + 1
    else hi := mid
  done;
  !at

(* [c] without its literal at position [j]. *)
let without (c : int array) j =
  let n = Array.length c in
  let d = Array.make (n - 1) 0 in
  for t = 0 to j - 1 do
    d.(t) <- c.(t)
  done;
  for t = j + 1 to n - 1 do
    d.(t - 1) <- c.(t)
  done;
  d

type 'a node =
  | Const of 'a
  | Res of int
  | Sum of ('a * int) array
  | IndepOr of int array

type 'a arith = {
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  complement : 'a -> 'a;
  prob : Wtable.var -> int -> 'a;
}

type packed = { vars : Wtable.var array; bits : int; clauses : int array array }
type t = packed

type 'a dag = { nodes : 'a node array; residuals : int array array array; clauses : t }

let hash_set (s : int array array) =
  let h = ref 0 in
  for i = 0 to Array.length s - 1 do
    let c = s.(i) in
    h := (!h * 17) + Array.length c;
    for t = 0 to Array.length c - 1 do
      h := (!h * 31) + c.(t)
    done
  done;
  !h

let same_set (a : int array array) b =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && compare_clause a.(!i) b.(!i) = 0 do
    incr i
  done;
  !i = n

(* What a sub-DNF compiled to.  A constant stays out of the node array
   until a parent that does not fold needs it as a child ([at] is then its
   node), so the array only ever holds nodes reachable from the root, each
   once. *)
type 'a sub = Known of { p : 'a; mutable at : int } | Node of int

(* The decomposition workspace: the walk's cache and the split and
   conditioning scratch, taken by one walk at a time and reused by the next
   walk of the same domain, for the minor GC's sake (see "Workspace" in
   lineage.mli): [release] overwrites the walk's entries, so a minor
   collection finds the reused table empty.

   The cache is a chained hash table over int arrays: entry [k] is the
   walk's [k]-th cached set, with its hash and its bucket successor, and
   its result is the walk's own [stash] entry [k].  So the workspace holds
   no ['a] and one serves every number type, and [release] costs the
   walk's entries, not the table's capacity. *)
type workspace = {
  busy : bool Atomic.t;  (* the domain's workspace is taken *)
  mutable heads : int array;
      (* bucket -> its newest entry, or -1; a power of two long, all -1
         between walks *)
  mutable next : int array;  (* entry -> the bucket's previous entry, or -1 *)
  mutable hashes : int array;  (* entry -> [hash_set] of its set *)
  mutable sets : int array array array;  (* entry -> set; all [||] between walks *)
  mutable entries : int;  (* 0 between walks *)
  (* Per local variable, read where [stamp] holds the split that counted
     the variable: its clause count and its latest clause. *)
  mutable counts : int array;
  mutable owner : int array;
  mutable stamp : int array;
  mutable splits : int;  (* the stamp of the latest split *)
  (* Per-clause scratch, at least as long as the root: no set below it is
     larger.  Each is live only inside one split or one expansion's
     conditioning, never across the recursion. *)
  mutable parent : int array;  (* union-find *)
  mutable comp : int array;  (* component id per clause *)
  mutable slot : int array;  (* component id per root, then sizes and cursors *)
  mutable at : int array;  (* conditioning: see [locate] and [restrict] *)
  mutable masks : int array;
  mutable others : int array;
  mutable shrunk : int array;
  mutable kept : int array;
}

let fresh_workspace () =
  { busy = Atomic.make false; heads = Array.make 16 (-1); next = [||];
    hashes = [||]; sets = [||]; entries = 0; counts = [||]; owner = [||];
    stamp = [||]; splits = 0; parent = [||]; comp = [||]; slot = [||];
    at = [||]; masks = [||]; others = [||]; shrunk = [||]; kept = [||] }

let workspace = Domain.DLS.new_key fresh_workspace

(* Past these sizes [release] drops the table and the scratch, so one huge
   walk does not pin them for the domain's life. *)
let cache_bound = 1 lsl 14
let scratch_bound = 1 lsl 12

let grown a n = if Array.length a >= n then a else Array.make n 0

(* The domain's workspace if no other walk (a systhread of the same domain)
   holds it, else a fresh one. *)
let take () =
  let own = Domain.DLS.get workspace in
  if Atomic.compare_and_set own.busy false true then own
  else fresh_workspace ()

(* Scratch for [nv] variables and [m] clauses. *)
let fit ws ~nv ~m =
  ws.counts <- grown ws.counts nv;
  ws.owner <- grown ws.owner nv;
  ws.stamp <- grown ws.stamp nv;
  ws.parent <- grown ws.parent m;
  ws.comp <- grown ws.comp m;
  ws.slot <- grown ws.slot m;
  ws.at <- grown ws.at m;
  ws.masks <- grown ws.masks m;
  ws.others <- grown ws.others m;
  ws.shrunk <- grown ws.shrunk m;
  ws.kept <- grown ws.kept m

(* The entry holding [set] (of hash [h]) from entry [e] down its bucket,
   or -1.  Sets are compared in full, so a hash collision never shares a
   node. *)
let rec scan ws h set e =
  if e < 0 || (ws.hashes.(e) = h && same_set ws.sets.(e) set) then e
  else scan ws h set ws.next.(e)

let lookup ws h set = scan ws h set ws.heads.(h land (Array.length ws.heads - 1))

let link ws e =
  let i = ws.hashes.(e) land (Array.length ws.heads - 1) in
  ws.next.(e) <- ws.heads.(i);
  ws.heads.(i) <- e

(* Adds [set] as entry [ws.entries], keeping at most two entries per
   bucket on average.  A replaced [sets] array is emptied, so it leaves no
   remembered entry behind. *)
let add ws h set =
  let e = ws.entries in
  if e = Array.length ws.next then begin
    let n = max 32 (2 * e) in
    let next = Array.make n (-1) and hashes = Array.make n 0 in
    let sets = Array.make n [||] in
    Array.blit ws.next 0 next 0 e;
    Array.blit ws.hashes 0 hashes 0 e;
    Array.blit ws.sets 0 sets 0 e;
    Array.fill ws.sets 0 e [||];
    ws.next <- next;
    ws.hashes <- hashes;
    ws.sets <- sets
  end;
  ws.hashes.(e) <- h;
  ws.sets.(e) <- set;
  ws.entries <- e + 1;
  if e >= 2 * Array.length ws.heads then begin
    ws.heads <- Array.make (2 * Array.length ws.heads) (-1);
    for k = 0 to e do
      link ws k
    done
  end
  else link ws e

(* Runs however the walk ended, even inside [fit].  A split half done
   leaves nothing to restore: the next split reads no variable it has not
   stamped itself. *)
let release ws =
  let mask = Array.length ws.heads - 1 in
  for e = 0 to ws.entries - 1 do
    ws.heads.(ws.hashes.(e) land mask) <- -1;
    ws.sets.(e) <- [||]
  done;
  ws.entries <- 0;
  if Array.length ws.next > cache_bound then begin
    ws.heads <- Array.make 16 (-1);
    ws.next <- [||];
    ws.hashes <- [||];
    ws.sets <- [||]
  end;
  if Array.length ws.counts > scratch_bound then begin
    ws.counts <- [||];
    ws.owner <- [||];
    ws.stamp <- [||]
  end;
  if Array.length ws.parent > scratch_bound then begin
    ws.parent <- [||];
    ws.comp <- [||];
    ws.slot <- [||];
    ws.at <- [||];
    ws.masks <- [||];
    ws.others <- [||];
    ws.shrunk <- [||];
    ws.kept <- [||]
  end;
  Atomic.set ws.busy false

(* Conditioning a set on every value of [v] shares one pass: [locate]
   records the position of [v] in each clause ([at], -1 where it is
   unbound) and lists the clauses that do not bind it ([others], in set
   order), and returns how many there are.  [masks] then caches each
   clause's literal mask as a subsumption test first needs it (0 before:
   a mask of a clause of at least one literal is not 0); a clause that
   binds [v] is masked without it. *)
let locate bits ws set v =
  let nu = ref 0 in
  for i = 0 to Array.length set - 1 do
    let j = find_var bits set.(i) v in
    ws.at.(i) <- j;
    ws.masks.(i) <- 0;
    if j < 0 then begin
      ws.others.(!nu) <- i;
      incr nu
    end
  done;
  !nu

let mask_of ws set i =
  let m = ws.masks.(i) in
  if m <> 0 then m
  else begin
    let m = mask_without set.(i) ws.at.(i) in
    ws.masks.(i) <- m;
    m
  end

(* Incremental conditioning of a minimal set.  For [set] minimal (sorted,
   deduplicated, no clause subsuming another), split it into the untouched
   clauses U (not binding [v]) and the shrunk ones T = {t − (v = x)}:
   - T is sorted, duplicate-free and minimal: removing the same literal
     from every parent keeps their order, and t₁ − L ⊆ t₂ − L would give
     t₁ ⊆ t₂;
   - no u ∈ U equals or subsumes a t − L, else u ⊆ t;
   - a single-literal parent [v = x] shrinks to the empty clause, and then
     nothing else binds [v = x] (it would be subsumed) and the result is
     [[|[||]|]].
   So [normalize (set | v = x)] is U minus the clauses some shorter t − L
   subsumes, merged with T.  [restrict] builds it from [locate]'s scratch:
   one pass lists T's parents ([shrunk]), the untouched clauses are tested
   only against the parents no longer than themselves (the set is sorted
   shortest first), the survivors are listed in [kept], and one merge walk
   writes the result.  Above the cap, where a set is only sorted and
   deduplicated, T is still sorted and duplicate-free, so the same merge of
   U and T is normalized from scratch. *)
let restrict bits ws set nu x =
  let m = Array.length set and at = ws.at and shrunk = ws.shrunk in
  let ns = ref 0 and unit = ref false in
  for i = 0 to m - 1 do
    let j = at.(i) in
    if j >= 0 && set.(i).(j) land ((1 lsl bits) - 1) = x then begin
      shrunk.(!ns) <- i;
      incr ns;
      if Array.length set.(i) = 1 then unit := true
    end
  done;
  if !unit then [| [||] |]
  else begin
    let ns = !ns and minimal = m <= subsumption_cap in
    let keep = ref ws.others and nk = ref nu in
    if minimal && ns > 0 then begin
      let shortest = Array.length set.(shrunk.(0)) in
      keep := ws.kept;
      nk := 0;
      for k = 0 to nu - 1 do
        let i = ws.others.(k) in
        let u = set.(i) in
        let lu = Array.length u and s = ref 0 in
        if shortest <= lu then begin
          let mu = mask_of ws set i in
          while !s < ns && Array.length set.(shrunk.(!s)) <= lu do
            let p = shrunk.(!s) in
            if mask_of ws set p land lnot mu = 0 && subset_without set.(p) at.(p) u
            then s := max_int
            else incr s
          done
        end;
        if !s < max_int then begin
          ws.kept.(!nk) <- i;
          incr nk
        end
      done
    end;
    let keep = !keep and nk = !nk in
    let out = Array.make (ns + nk) [||] in
    let s = ref 0 and u = ref 0 in
    let t = ref (if ns > 0 then without set.(shrunk.(0)) at.(shrunk.(0)) else [||]) in
    for o = 0 to ns + nk - 1 do
      if !u = nk || (!s < ns && compare_clause !t set.(keep.(!u)) < 0) then begin
        out.(o) <- !t;
        incr s;
        if !s < ns then t := without set.(shrunk.(!s)) at.(shrunk.(!s))
      end
      else begin
        out.(o) <- set.(keep.(!u));
        incr u
      end
    done;
    if minimal then out else normalize_flat out
  end

let condition_flat ~bits set v x =
  let ws = fresh_workspace () in
  fit ws ~nv:0 ~m:(Array.length set);
  restrict bits ws set (locate bits ws set v) x

type 'a builder = {
  ops : 'a arith;
  w : Wtable.t;
  vars : int array;  (* local id -> W variable, ascending *)
  bits : int;
  ws : workspace;  (* the cache and the scratch *)
  mutable fuel : int;
  mutable nodes : 'a node array;
      (* children before parents; [||] until the first push, so a walk that
         folds to a constant allocates none *)
  mutable count : int;
  mutable stash : 'a sub array array;  (* cache entry -> its result, in chunks *)
  mutable residuals : int array array list;  (* newest first *)
  mutable nres : int;
}

(* The stash is chunked so that every array of it stays within
   [Max_young_wosize]: one larger array would be allocated in the major
   heap, and every result stored into it promoted. *)
let chunk = 256

(* Stores [sub] as the result of cache entry [k], the next one. *)
let stash b k sub =
  let c = k / chunk and i = k mod chunk in
  if c = Array.length b.stash then begin
    let bigger = Array.make (max 1 (2 * c)) [||] in
    Array.blit b.stash 0 bigger 0 c;
    b.stash <- bigger
  end;
  let a = b.stash.(c) in
  if i = Array.length a then begin
    let bigger = Array.make (min chunk (max 8 (2 * i))) sub in
    Array.blit a 0 bigger 0 i;
    b.stash.(c) <- bigger
  end;
  b.stash.(c).(i) <- sub

let stashed b k = b.stash.(k / chunk).(k mod chunk)

let push b node =
  if b.count = Array.length b.nodes then begin
    let bigger = Array.make (max 8 (2 * b.count)) node in
    Array.blit b.nodes 0 bigger 0 b.count;
    b.nodes <- bigger
  end;
  b.nodes.(b.count) <- node;
  b.count <- b.count + 1;
  b.count - 1

(* A clause's weight, multiplied out in ascending variable order — the
   order [Assignment.weight] and [Assignment.weight_float] use. *)
let weight ops vars bits (c : int array) =
  let acc = ref ops.one in
  for t = 0 to Array.length c - 1 do
    let lit = c.(t) in
    acc := ops.mul !acc (ops.prob vars.(lit lsr bits) (lit land ((1 lsl bits) - 1)))
  done;
  !acc

let clause_weight ops (p : packed) c = weight ops p.vars p.bits c

let float_arith w =
  { zero = 0.; one = 1.; add = ( +. ); mul = ( *. );
    complement = (fun p -> 1. -. p); prob = Wtable.prob_float w }

let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    parent.(i) <- parent.(p);
    find parent parent.(i)
  end

(* Counts each variable's clauses into [counts], stamped with a fresh
   split, and in the same pass unions the clauses that share a variable;
   returns how many components there are.  Clause [i] stays the root of
   its own tree while its literals are read, so each literal costs one
   [find], from the variable's latest clause. *)
let count_and_components b set =
  let m = Array.length set and bits = b.bits and ws = b.ws in
  let { parent; owner; counts; stamp; _ } = ws in
  let g = ws.splits + 1 in
  ws.splits <- g;
  let unions = ref 0 in
  for i = 0 to m - 1 do
    parent.(i) <- i;
    let c = set.(i) in
    for t = 0 to Array.length c - 1 do
      let v = c.(t) lsr bits in
      if stamp.(v) <> g then begin
        stamp.(v) <- g;
        counts.(v) <- 1
      end
      else begin
        counts.(v) <- counts.(v) + 1;
        let r = find parent owner.(v) in
        if r <> i then begin
          parent.(r) <- i;
          incr unions
        end
      end;
      owner.(v) <- i
    done
  done;
  m - !unions

(* The [n] components [count_and_components] found, numbered in
   first-occurrence order, each in set order. *)
let gather b set n =
  let m = Array.length set and { parent; comp; slot; _ } = b.ws in
  for i = 0 to m - 1 do
    slot.(i) <- -1
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    let r = find parent i in
    if slot.(r) < 0 then begin
      slot.(r) <- !k;
      incr k
    end;
    comp.(i) <- slot.(r)
  done;
  let size = slot in
  for k = 0 to n - 1 do
    size.(k) <- 0
  done;
  for i = 0 to m - 1 do
    size.(comp.(i)) <- size.(comp.(i)) + 1
  done;
  let comps = Array.make n [||] in
  for k = 0 to n - 1 do
    comps.(k) <- Array.make size.(k) [||];
    size.(k) <- 0
  done;
  for i = 0 to m - 1 do
    let k = comp.(i) in
    comps.(k).(size.(k)) <- set.(i);
    size.(k) <- size.(k) + 1
  done;
  comps

(* The pivot of a connected set whose variables' [counts] are its own, as
   [(v lsl 1) lor 1] for a variable bound in every clause, i.e. counted [m]
   times (smallest id), else [v lsl 1] for the variable in the most clauses
   (smallest id on ties). *)
let pivot b set =
  let m = Array.length set and bits = b.bits and counts = b.ws.counts in
  let best = ref max_int and most = ref 0 in
  for i = 0 to m - 1 do
    let c = set.(i) in
    for t = 0 to Array.length c - 1 do
      let v = c.(t) lsr bits in
      let k = counts.(v) in
      if k > !most || (k = !most && v < !best) then begin
        best := v;
        most := k
      end
    done
  done;
  (!best lsl 1) lor Bool.to_int (!most = m)

let known p = Known { p; at = -1 }

let node b = function
  | Node id -> id
  | Known k ->
      if k.at < 0 then k.at <- push b (Const k.p);
      k.at

let rec all_known (subs : _ sub array) i =
  i = Array.length subs
  || (match subs.(i) with Known _ -> all_known subs (i + 1) | Node _ -> false)

let value = function Known k -> k.p | Node _ -> invalid_arg "Lineage.value"

(* Children that are all constants fold into one constant, combined in the
   order an evaluation of the unfolded node would use, so the folded value
   is the same bits. *)
let sum b wv subs =
  let d = Array.length subs in
  if all_known subs 0 then begin
    let acc = ref b.ops.zero in
    for x = 0 to d - 1 do
      acc := b.ops.add !acc (b.ops.mul (b.ops.prob wv x) (value subs.(x)))
    done;
    known !acc
  end
  else begin
    let branches = Array.make d (b.ops.zero, 0) in
    for x = 0 to d - 1 do
      branches.(x) <- (b.ops.prob wv x, node b subs.(x))
    done;
    Node (push b (Sum branches))
  end

let indep_or b subs =
  let n = Array.length subs in
  if all_known subs 0 then begin
    let acc = ref b.ops.one in
    for k = 0 to n - 1 do
      acc := b.ops.mul !acc (b.ops.complement (value subs.(k)))
    done;
    known (b.ops.complement !acc)
  end
  else begin
    let ids = Array.make n 0 in
    for k = 0 to n - 1 do
      ids.(k) <- node b subs.(k)
    done;
    Node (push b (IndepOr ids))
  end

(* A normalized set; sets of two or more clauses go through the cache,
   where a hit costs no fuel. *)
let rec child b ~connected set =
  match Array.length set with
  | 0 -> known b.ops.zero
  | 1 -> known (weight b.ops b.vars b.bits set.(0))
  | _ -> (
      let h = hash_set set in
      match lookup b.ws h set with
      | -1 ->
          let sub = expand b ~connected set in
          stash b b.ws.entries sub;
          add b.ws h set;
          sub
      | k -> stashed b k)

and expand b ~connected set =
  if b.fuel <= 0 then begin
    b.residuals <- set :: b.residuals;
    b.nres <- b.nres + 1;
    Node (push b (Res (b.nres - 1)))
  end
  else
    (* The one decomposition policy on a normalized set of two or more
       clauses, tried in order: variable-connected components (union-find
       over clauses, in first-occurrence order), a variable bound in every
       clause (smallest id), the variable in the most clauses (smallest id
       on ties).  Local ids follow W-variable order, so "smallest" means the
       same as on W ids.  A [connected] set is a component a split found,
       and no split since has counted any of its variables — the walk below
       a component only ever sees its own variables — so its counts are
       still current, and its pivot costs one read-only pass. *)
    let n = if connected then 1 else count_and_components b set in
    if n > 1 then begin
      (* A component is connected, and normalized when the set is: a part
         of a minimal set is minimal.  A component of a set too large for
         the subsumption pass is normalized here, and is only known to be
         connected when that dropped no clause (a dropped clause may have
         been its only link). *)
      let comps = gather b set n in
      let big = Array.length set > subsumption_cap in
      let subs = Array.make n (Node 0) in
      for k = 0 to n - 1 do
        let c = comps.(k) in
        subs.(k) <-
          (if big then
             let c' = normalize_flat c in
             child b ~connected:(Array.length c' = Array.length c) c'
           else child b ~connected:true c)
      done;
      indep_or b subs
    end
    else begin
      (* On a variable bound in every clause the branches are mutually
         exclusive and every clause shrinks, so the expansion is free and
         terminates on binding count; a Shannon expansion pays fuel. *)
      let p = pivot b set in
      let v = p lsr 1 in
      if p land 1 = 0 then
        b.fuel <- b.fuel - Wtable.domain_size b.w b.vars.(v) - Array.length set;
      branch b set v
    end

(* Every branch is conditioned before the first is walked: the walk
   reuses the conditioning scratch. *)
and branch b set v =
  let wv = b.vars.(v) in
  let d = Wtable.domain_size b.w wv in
  let nu = locate b.bits b.ws set v in
  let sets = Array.make d [||] in
  for x = 0 to d - 1 do
    sets.(x) <- restrict b.bits b.ws set nu x
  done;
  let subs = Array.make d (Node 0) in
  for x = 0 to d - 1 do
    subs.(x) <- child b ~connected:false sets.(x)
  done;
  sum b wv subs

(* Ascending heap sort of an int array: O(n log n), no closure. *)
let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let rec sift (a : int array) n i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
  if l < n && a.(c) > a.(i) then begin
    swap a i c;
    sift a n c
  end

let sort_ints a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift a n i
  done;
  for k = n - 1 downto 1 do
    swap a 0 k;
    sift a k 0
  done

(* The rank of W variable [v] among the sorted [vars.(lo .. hi - 1)]. *)
let rec local (vars : int array) v lo hi =
  let mid = (lo + hi) lsr 1 in
  if vars.(mid) = v then mid
  else if vars.(mid) < v then local vars v (mid + 1) hi
  else local vars v lo mid

let rec width top b = if top lsr b = 0 then b else width top (b + 1)

(* The one packer: the clauses in list order, empty ones included, over the
   sorted table of every variable they bind and the bit width of every
   value they bind.  Loops only: no closure per clause or literal. *)
let pack clauses =
  let cs = Array.of_list clauses in
  let m = Array.length cs in
  let vars = Array.make (Array.fold_left (fun n c -> n + Assignment.cardinal c) 0 cs) 0 in
  let n = ref 0 and top = ref 0 in
  for i = 0 to m - 1 do
    for t = 0 to Assignment.cardinal cs.(i) - 1 do
      let v, x = Assignment.nth cs.(i) t in
      if x < 0 then invalid_arg "Lineage: negative value in a clause";
      if x > !top then top := x;
      vars.(!n) <- v;
      incr n
    done
  done;
  sort_ints vars;
  let nv = ref (min 1 !n) in
  for t = 1 to !n - 1 do
    if vars.(t) <> vars.(!nv - 1) then (vars.(!nv) <- vars.(t); incr nv)
  done;
  let nv = !nv and bits = width !top 0 in
  if nv - 1 > max_int lsr bits then
    invalid_arg "Lineage: too many variables to pack beside their values";
  let vars = if nv = !n then vars else Array.sub vars 0 nv in
  let out = Array.make m [||] in
  for i = 0 to m - 1 do
    let c = Array.make (Assignment.cardinal cs.(i)) 0 in
    for t = 0 to Array.length c - 1 do
      let v, x = Assignment.nth cs.(i) t in
      c.(t) <- (local vars v 0 nv lsl bits) lor x
    done;
    out.(i) <- c
  done;
  { vars; bits; clauses = out }

(* [p] with its clauses cut to [kept], renumbered onto the table of exactly
   the variables [kept] binds and the bit width of exactly its values, so
   a dropped clause leaves no trace in the canonical value. *)
let compact (p : packed) kept =
  let mask = (1 lsl p.bits) - 1 and rank = Array.make (Array.length p.vars) (-1) in
  let top = ref 0 and n = ref 0 in
  let see lit = rank.(lit lsr p.bits) <- 0; top := max !top (lit land mask) in
  Array.iter (Array.iter see) kept;
  Array.iteri (fun u r -> if r = 0 then (rank.(u) <- !n; incr n)) rank;
  let bits = width !top 0 in
  if !n = Array.length p.vars && bits = p.bits then { p with clauses = kept }
  else
    let vars = Array.make !n 0 in
    Array.iteri (fun u r -> if r >= 0 then vars.(r) <- p.vars.(u)) rank;
    let remap lit = (rank.(lit lsr p.bits) lsl bits) lor (lit land mask) in
    { vars; bits; clauses = Array.map (Array.map remap) kept }

(* The one normalizer on [p]'s clauses, which it sorts in place. *)
let canonical (p : packed) =
  let kept = normalize_flat p.clauses in
  if kept == p.clauses then p else compact p kept

let of_clauses clauses = canonical (pack clauses)

let of_packed (p : packed) = canonical { p with clauses = Array.copy p.clauses }

let to_clauses ({ vars; bits; clauses } : packed) =
  let binding lit = (vars.(lit lsr bits), lit land ((1 lsl bits) - 1)) in
  Array.to_list
    (Array.map
       (fun c -> Assignment.of_list (List.map binding (Array.to_list c)))
       clauses)

let normalize = function
  | ([] | [ _ ]) as clauses -> clauses
  | clauses -> to_clauses (of_clauses clauses)

let constant clauses p = { nodes = [| Const p |]; residuals = [||]; clauses }

(* The walk over [l]'s clauses, on the taken workspace [ws]. *)
let walk ?(fuel = max_int) ops w ws (l : t) =
  let { vars; bits; clauses = root } = l in
  fit ws ~nv:(Array.length vars) ~m:(Array.length root);
  let b =
    { ops; w; vars; bits; ws; fuel; nodes = [||]; count = 0; stash = [||];
      residuals = []; nres = 0 }
  in
  (* The root is never looked up: no set recurs below itself. *)
  match expand b ~connected:false root with
  | Known { p; _ } -> constant l p
  | Node _ ->
      { nodes = Array.sub b.nodes 0 b.count;
        residuals = Array.of_list (List.rev b.residuals);
        clauses = l }

let decompose ?fuel ops w (l : t) =
  match l.clauses with
  | [||] -> constant l ops.zero
  | [| c |] -> constant l (weight ops l.vars l.bits c)
  | _ -> (
      let ws = take () in
      match walk ?fuel ops w ws l with
      | dag ->
          release ws;
          dag
      | exception e ->
          let trace = Printexc.get_raw_backtrace () in
          release ws;
          Printexc.raise_with_backtrace e trace)

let exact w clauses =
  let open Pqdb_numeric in
  let ops =
    { zero = Rational.zero; one = Rational.one; add = Rational.add;
      mul = Rational.mul; complement = Rational.complement;
      prob = Wtable.prob w }
  in
  match decompose ops w (of_clauses clauses) with
  | { nodes = [| Const p |]; _ } -> p
  | _ -> invalid_arg "Lineage.exact: fuel ran out"
